"""Fixtures shared by the core tests."""

from collections import Counter

import pytest

from repro.reachability import kernels

#: The numpy tier's array constructions of the maintenance flush: compound
#: graph assembly, a summary's contribution pieces and condensation.
ARRAY_PATH = ("np_union_csr", "np_edges_piece", "np_condense")


class KernelTier:
    """The kernel tier a test runs on, with a count of its array-path calls."""

    def __init__(self, name):
        self.name = name
        self.calls = Counter()

    def assert_took_its_path(self):
        """The numpy tier built through every array function, python through none."""
        taken = {name for name, count in self.calls.items() if count}
        assert taken == (set(ARRAY_PATH) if self.name == "numpy" else set())


@pytest.fixture(
    params=[
        "python",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(
                not kernels.numpy_available(), reason="numpy not installed"
            ),
        ),
    ]
)
def kernel_tier(request, monkeypatch):
    """Run on one kernel tier (pass ``kernels=kernel_tier.name`` to the engine).

    Every array-path function of :mod:`repro.reachability.kernels` is
    wrapped in a counting spy, so the test can check which path served it.
    """
    tier = KernelTier(request.param)
    for name in ARRAY_PATH:
        original = getattr(kernels, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            tier.calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(kernels, name, spy)
    with kernels.use_kernels(request.param):
        yield tier
