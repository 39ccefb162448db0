"""Shared fixtures for the whole test suite."""

import sys

import pytest

from repro.graph import generators
from repro.partition.partition import GraphPartitioning
from repro.reachability import bitset_msbfs, packed


@pytest.fixture
def paper_example():
    """The Figure-1 running example: graph, partitioning and label lookup."""
    graph, assignment = generators.paper_example_graph()
    partitioning = GraphPartitioning(graph, assignment, 3)
    labels = {graph.label_of(vertex): vertex for vertex in graph.vertices()}
    return graph, partitioning, labels


#: The three input-size crossovers that pick a kernel call's side: the
#: python loop below the constant, the numpy function from it on.
CROSSOVERS = (
    (bitset_msbfs, "NUMPY_MIN_SEEDS"),
    (packed, "NUMPY_MIN_ROWS"),
    (packed, "_NUMPY_PACK_THRESHOLD"),
)

#: Each side's value for every crossover: 0 sends every call to the numpy
#: function, a width no call reaches sends every call to the python loop.
SIDES = {"python": sys.maxsize, "numpy": 0}


class Crossover:
    """The side of its crossover every size-picked kernel call is forced onto."""

    def __init__(self, monkeypatch, side):
        self._monkeypatch = monkeypatch
        self.force(side)

    def force(self, side):
        """Move every crossover to ``side`` (``"python"`` or ``"numpy"``)."""
        for module, name in CROSSOVERS:
            self._monkeypatch.setattr(module, name, SIDES[side])
        self.side = side


@pytest.fixture(params=sorted(SIDES))
def crossover(request, monkeypatch):
    """Run once with every kernel call on its python loop, once on numpy.

    The crossovers are restored after the test.  Both sides return the same
    Python ints, so a test run on each holds the python loops to the numpy
    functions (and both to whatever oracle the test checks).
    """
    return Crossover(monkeypatch, request.param)
