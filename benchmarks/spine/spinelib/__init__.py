"""Library half of the measurement spine (see ``benchmarks/spine/README.md``).

``run.py`` is the command; everything it needs lives here so the unit tests
(``test_spine.py``) can import the pieces without starting a server.
"""
