"""Packaging for the DSR (SIGMOD 2016) reproduction.

The project is pure Python with one runtime dependency, numpy (the bitset
kernels and the flush builders).  The classic ``setup.py`` path works even
in fully offline environments without the ``wheel`` package, as long as
numpy is already installed::

    pip install -e . --no-build-isolation

Installing provides the ``repro-dsr`` console command (``repro.cli:main``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-dsr",
    version="1.8.0",
    description=(
        "Reproduction of 'Distributed Set Reachability' (SIGMOD 2016): "
        "DSR index, one-round query protocol, incremental maintenance, an "
        "online query service (planner, result cache, concurrent server) and "
        "a unified typed API (DSRConfig, ReachQuery, backend registry)"
    ),
    long_description=open("README.md", encoding="utf-8").read(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-dsr = repro.cli:main",
        ]
    },
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Information Analysis",
    ],
)
