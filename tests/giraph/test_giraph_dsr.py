"""Tests for the three Giraph-style DSR baselines (Appendix 8.4)."""

import random

import pytest

from repro.giraph.giraph_dsr import GiraphDSR
from repro.giraph.giraphpp_dsr import GiraphPlusPlusDSR
from repro.giraph.giraphpp_eq_dsr import GiraphPlusPlusEqDSR
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.partition.partition import GraphPartitioning, make_partitioning

VARIANTS = {
    "giraph": GiraphDSR,
    "giraph++": GiraphPlusPlusDSR,
    "giraph++weq": GiraphPlusPlusEqDSR,
}


def make_setting(seed):
    graph = generators.random_digraph(70, 200, seed=seed)
    partitioning = make_partitioning(graph, 4, strategy="metis", seed=seed)
    rng = random.Random(seed)
    vertices = sorted(graph.vertices())
    return graph, partitioning, rng.sample(vertices, 8), rng.sample(vertices, 8)


@pytest.mark.parametrize("name", sorted(VARIANTS))
class TestCorrectness:
    def test_matches_ground_truth(self, name):
        graph, partitioning, sources, targets = make_setting(seed=3)
        impl = VARIANTS[name](graph, partitioning)
        assert impl.query(sources, targets).pairs == reachable_pairs(
            graph, sources, targets
        )

    def test_paper_example3(self, name, paper_example):
        graph, partitioning, labels = paper_example
        impl = VARIANTS[name](graph, partitioning)
        sources = [labels[x] for x in ("a", "d", "g")]
        targets = [labels[x] for x in ("l", "p")]
        pairs = impl.query(sources, targets).pairs
        assert {(graph.label_of(s), graph.label_of(t)) for s, t in pairs} == {
            (s, t) for s in ("a", "d", "g") for t in ("l", "p")
        }

    def test_single_pair(self, name, paper_example):
        graph, partitioning, labels = paper_example
        impl = VARIANTS[name](graph, partitioning)
        assert impl.reachable(labels["b"], labels["f"])
        assert not impl.reachable(labels["k"], labels["a"])

    def test_boundary_targets(self, name, paper_example):
        graph, partitioning, labels = paper_example
        impl = VARIANTS[name](graph, partitioning)
        pairs = impl.query([labels["a"]], [labels["m"], labels["i"]]).pairs
        assert {(graph.label_of(s), graph.label_of(t)) for s, t in pairs} == {
            ("a", "m"),
            ("a", "i"),
        }


class TestIterativeBehaviour:
    """The structural claims of the paper's comparison."""

    def test_giraph_supersteps_grow_with_path_length(self):
        graph = generators.path_graph(30)
        partitioning = make_partitioning(graph, 3, strategy="hash", seed=1)
        impl = GiraphDSR(graph, partitioning)
        result = impl.query([0], [29])
        assert (0, 29) in result.pairs
        assert result.rounds >= 29

    def test_graph_centric_uses_fewer_supersteps(self):
        graph = generators.path_graph(30)
        # Contiguous partitioning: each partition holds a consecutive block.
        assignment = {v: min(2, v // 10) for v in graph.vertices()}
        partitioning = GraphPartitioning(graph, assignment, 3)
        vertex_centric = GiraphDSR(graph, partitioning).query([0], [29])
        graph_centric = GiraphPlusPlusDSR(graph, partitioning).query([0], [29])
        assert graph_centric.pairs == vertex_centric.pairs
        assert graph_centric.rounds < vertex_centric.rounds

    def test_equivalence_reduces_network_messages(self):
        graph, partitioning, sources, targets = make_setting(seed=11)
        plain = GiraphPlusPlusDSR(graph, partitioning).query(sources, targets)
        with_eq = GiraphPlusPlusEqDSR(graph, partitioning).query(sources, targets)
        assert with_eq.pairs == plain.pairs
        assert with_eq.messages_sent <= plain.messages_sent

    def test_dsr_uses_one_round_while_giraph_iterates(self, paper_example):
        from repro.api import DSRConfig, ReachQuery, open_engine

        graph, partitioning, labels = paper_example
        dsr = open_engine(graph, DSRConfig(), partitioning=partitioning)
        sources = [labels[x] for x in ("a", "d", "g")]
        targets = [labels[x] for x in ("l", "p")]
        dsr_result = dsr.run(ReachQuery(sources, targets))
        giraph_result = GiraphDSR(graph, partitioning).query(sources, targets)
        assert dsr_result.pairs == giraph_result.pairs
        assert dsr_result.rounds == 1
        assert giraph_result.rounds > 1
