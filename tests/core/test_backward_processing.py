"""Tests for backward query processing (Section 3.3.2, forward vs backward)."""

import random

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.core.engine import DSREngine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs


@pytest.fixture
def backward_engine():
    graph = generators.web_graph(130, avg_degree=5, seed=19)
    engine = open_engine(
        graph,
        DSRConfig(num_partitions=4, local_index="msbfs", seed=3, enable_backward=True),
    )
    return graph, engine


class TestBackwardQueries:
    def test_backward_matches_forward(self, backward_engine):
        graph, engine = backward_engine
        rng = random.Random(1)
        vertices = sorted(graph.vertices())
        sources = rng.sample(vertices, 10)
        targets = rng.sample(vertices, 10)
        forward = engine.run(ReachQuery(sources, targets, direction="forward")).pairs
        backward = engine.run(ReachQuery(sources, targets, direction="backward")).pairs
        assert forward == backward == reachable_pairs(graph, sources, targets)

    def test_backward_matches_ground_truth_paper_example(self, paper_example):
        graph, partitioning, labels = paper_example
        engine = open_engine(
            graph,
            DSRConfig(local_index="dfs", enable_backward=True),
            partitioning=partitioning,
        )
        sources = [labels[x] for x in ("a", "d", "g")]
        targets = [labels[x] for x in ("l", "p")]
        pairs = engine.run(ReachQuery(sources, targets, direction="backward")).pairs
        assert {(graph.label_of(s), graph.label_of(t)) for s, t in pairs} == {
            (s, t) for s in ("a", "d", "g") for t in ("l", "p")
        }

    def test_auto_prefers_backward_for_few_targets(self, backward_engine):
        graph, engine = backward_engine
        rng = random.Random(2)
        vertices = sorted(graph.vertices())
        sources = rng.sample(vertices, 12)
        targets = rng.sample(vertices, 3)
        auto = engine.run(ReachQuery(sources, targets, direction="auto")).pairs
        assert auto == reachable_pairs(graph, sources, targets)

    def test_auto_without_backward_index_falls_back(self):
        graph = generators.random_digraph(50, 140, seed=21)
        engine = DSREngine(graph, DSRConfig(num_partitions=3, seed=1))  # enable_backward=False
        engine.build_index()
        vertices = sorted(graph.vertices())
        pairs = engine.run(ReachQuery(vertices[:8], vertices[8:10], direction="auto")).pairs
        assert pairs == reachable_pairs(graph, vertices[:8], vertices[8:10])

    def test_explicit_backward_without_index_raises(self):
        graph = generators.random_digraph(30, 80, seed=22)
        engine = open_engine(graph, DSRConfig(num_partitions=2, seed=1))
        with pytest.raises(RuntimeError):
            engine.run(ReachQuery([0], [1], direction="backward")).pairs

    def test_invalid_direction_rejected(self, backward_engine):
        _, engine = backward_engine
        with pytest.raises(ValueError):
            engine.run(ReachQuery([0], [1], direction="sideways")).pairs

    def test_single_round_in_backward_mode(self, backward_engine):
        graph, engine = backward_engine
        vertices = sorted(graph.vertices())
        result = engine.run(ReachQuery(vertices[:6], vertices[6:8], direction="backward"))
        assert result.rounds == 1


class TestBackwardWithUpdates:
    def test_updates_keep_both_indexes_consistent(self, backward_engine):
        graph, engine = backward_engine
        rng = random.Random(5)
        vertices = sorted(graph.vertices())
        u, v = rng.sample(vertices, 2)
        engine.insert_edge(u, v)
        removal = next(iter(graph.edges()))
        engine.delete_edge(*removal)

        sources = rng.sample(vertices, 8)
        targets = rng.sample(vertices, 4)
        expected = reachable_pairs(graph, sources, targets)
        assert engine.run(ReachQuery(sources, targets, direction="forward")).pairs == expected
        assert engine.run(ReachQuery(sources, targets, direction="backward")).pairs == expected

    def test_vertex_updates_mirrored(self, backward_engine):
        graph, engine = backward_engine
        new_vertex = engine.insert_vertex()
        anchor = sorted(graph.vertices())[0]
        engine.insert_edge(anchor, new_vertex)
        expected = reachable_pairs(graph, [anchor], [new_vertex])
        assert engine.run(ReachQuery([anchor], [new_vertex], direction="forward")).pairs == expected
        assert engine.run(ReachQuery([anchor], [new_vertex], direction="backward")).pairs == expected
