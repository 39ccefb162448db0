"""Tests for the public DSREngine API."""

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.core.engine import DSREngine
from repro.graph import generators


@pytest.fixture
def small_engine():
    graph = generators.social_graph(120, avg_degree=6, seed=2)
    engine = open_engine(graph, DSRConfig(num_partitions=4, local_index="msbfs", seed=1))
    return graph, engine


class TestLifecycle:
    def test_query_before_build_raises(self):
        graph = generators.random_digraph(20, 40, seed=1)
        engine = DSREngine(graph, DSRConfig(num_partitions=2))
        with pytest.raises(RuntimeError):
            engine.run(ReachQuery([0], [1])).pairs

    def test_is_built_flag(self):
        graph = generators.random_digraph(20, 40, seed=1)
        engine = DSREngine(graph, DSRConfig(num_partitions=2))
        assert not engine.is_built
        engine.build_index()
        assert engine.is_built

    def test_build_report_returned(self, small_engine):
        _, engine = small_engine
        assert engine.last_build_report is not None
        assert engine.last_build_report.total_bytes > 0

    def test_invalid_partitioner_rejected(self):
        graph = generators.random_digraph(20, 40, seed=1)
        with pytest.raises(ValueError):
            DSREngine(graph, DSRConfig(num_partitions=2, partitioner="nope"))

    def test_invalid_local_index_rejected(self):
        # The config validates eagerly: no engine is ever built from a typo.
        with pytest.raises(ValueError):
            DSRConfig(num_partitions=2, local_index="nope")


class TestQueryAPI:
    def test_query_returns_pairs(self, small_engine):
        graph, engine = small_engine
        vertices = sorted(graph.vertices())
        pairs = engine.run(ReachQuery(vertices[:5], vertices[5:10])).pairs
        assert isinstance(pairs, set)
        for s, t in pairs:
            assert s in vertices[:5]
            assert t in vertices[5:10]

    def test_query_with_stats(self, small_engine):
        graph, engine = small_engine
        vertices = sorted(graph.vertices())
        result = engine.run(ReachQuery(vertices[:5], vertices[5:10]))
        assert result.rounds == 1
        assert result.parallel_seconds >= 0
        assert engine.last_query_stats["num_pairs"] == result.num_pairs

    def test_last_query_stats_empty_before_first_query(self):
        graph = generators.random_digraph(20, 40, seed=1)
        engine = DSREngine(graph, DSRConfig(num_partitions=2))
        assert engine.last_query_stats == {}

    def test_accepts_any_iterable(self, small_engine):
        graph, engine = small_engine
        vertices = sorted(graph.vertices())
        from_set = engine.run(ReachQuery(set(vertices[:3]), set(vertices[3:6]))).pairs
        from_tuple = engine.run(ReachQuery(tuple(vertices[:3]), tuple(vertices[3:6]))).pairs
        assert from_set == from_tuple


class TestIntrospection:
    def test_index_sizes(self, small_engine):
        _, engine = small_engine
        sizes = engine.index_sizes()
        assert sizes["max_original_edges"] >= sizes["max_dag_edges"] > 0
        assert sizes["total_bytes"] > 0

    def test_partition_summary_includes_boundary_entries(self, small_engine):
        _, engine = small_engine
        summary = engine.partition_summary()
        assert summary["num_partitions"] == 4
        assert "forward_entries" in summary
        assert "backward_entries" in summary

    def test_partition_summary_before_build(self):
        graph = generators.random_digraph(20, 40, seed=1)
        engine = DSREngine(graph, DSRConfig(num_partitions=2))
        summary = engine.partition_summary()
        assert "forward_entries" not in summary

