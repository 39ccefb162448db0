"""Tests for the DSR-Fan and DSR-Naïve baselines (Sections 3.1 / 3.2)."""

import random

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.core.fan import DSRFan
from repro.core.naive import DSRNaive
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.partition.partition import make_partitioning


@pytest.fixture
def random_setting():
    graph = generators.random_digraph(70, 200, seed=3)
    partitioning = make_partitioning(graph, 4, strategy="hash", seed=3)
    rng = random.Random(2)
    vertices = sorted(graph.vertices())
    sources = rng.sample(vertices, 7)
    targets = rng.sample(vertices, 7)
    return graph, partitioning, sources, targets


class TestDSRFan:
    def test_matches_ground_truth(self, random_setting):
        graph, partitioning, sources, targets = random_setting
        fan = DSRFan(partitioning)
        assert fan.query(sources, targets).pairs == reachable_pairs(
            graph, sources, targets
        )

    def test_matches_paper_example3(self, paper_example):
        graph, partitioning, labels = paper_example
        fan = DSRFan(partitioning)
        sources = [labels[x] for x in ("a", "d", "g")]
        targets = [labels[x] for x in ("l", "p")]
        pairs = fan.query(sources, targets).pairs
        assert {(graph.label_of(s), graph.label_of(t)) for s, t in pairs} == {
            (s, t) for s in ("a", "d", "g") for t in ("l", "p")
        }

    def test_dependency_graph_recorded(self, random_setting):
        graph, partitioning, sources, targets = random_setting
        fan = DSRFan(partitioning)
        result = fan.query(sources, targets)
        assert result.dependency_graph_edges > 0
        assert fan.last_dependency_edges == result.dependency_graph_edges

    def test_single_pair_api(self, paper_example):
        graph, partitioning, labels = paper_example
        fan = DSRFan(partitioning)
        assert fan.reachable(labels["b"], labels["f"])
        assert not fan.reachable(labels["k"], labels["a"])

    def test_one_round_of_communication(self, random_setting):
        _, partitioning, sources, targets = random_setting
        fan = DSRFan(partitioning)
        assert fan.query(sources, targets).rounds == 1

    def test_dependency_graph_is_query_specific(self, random_setting):
        """Fan rebuilds its dependency graph per query (the cost DSR removes)."""
        graph, partitioning, sources, targets = random_setting
        fan = DSRFan(partitioning)
        first = fan.query(sources[:2], targets[:2]).dependency_graph_edges
        second = fan.query(sources, targets).dependency_graph_edges
        assert second >= first


class TestDSRNaive:
    def test_matches_ground_truth(self, random_setting):
        graph, partitioning, sources, targets = random_setting
        naive = DSRNaive(partitioning)
        assert naive.query(sources[:4], targets[:4]).pairs == reachable_pairs(
            graph, sources[:4], targets[:4]
        )

    def test_per_pair_cost_accumulates(self, random_setting):
        _, partitioning, sources, targets = random_setting
        naive = DSRNaive(partitioning)
        result = naive.query(sources[:3], targets[:3])
        # One dependency graph (and hence one round) per (s, t) pair.
        assert result.rounds == 9
        assert naive.last_average_dependency_edges > 0

    def test_single_pair_api(self, paper_example):
        graph, partitioning, labels = paper_example
        naive = DSRNaive(partitioning)
        assert naive.reachable(labels["d"], labels["q"])


class TestBaselinesAgreeWithDSR:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_three_agree(self, seed):
        graph = generators.web_graph(80, avg_degree=5, seed=seed)
        partitioning = make_partitioning(graph, 3, strategy="metis", seed=seed)
        rng = random.Random(seed)
        vertices = sorted(graph.vertices())
        sources = rng.sample(vertices, 5)
        targets = rng.sample(vertices, 5)

        engine = open_engine(graph, DSRConfig(local_index="msbfs"), partitioning=partitioning)
        fan = DSRFan(partitioning)
        naive = DSRNaive(partitioning)

        expected = reachable_pairs(graph, sources, targets)
        assert engine.run(ReachQuery(sources, targets)).pairs == expected
        assert fan.query(sources, targets).pairs == expected
        assert naive.query(sources, targets).pairs == expected
