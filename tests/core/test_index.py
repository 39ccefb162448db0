"""Tests for the DSRIndex build (phases, statistics, Table-2/4 numbers)."""

import pytest

from repro.core.equivalence import class_id
from repro.core.index import DSRIndex
from repro.graph import generators
from repro.partition.partition import make_partitioning


@pytest.fixture
def built_index(paper_example):
    _, partitioning, _ = paper_example
    index = DSRIndex(partitioning, use_equivalence=True)
    index.build()
    return index


class TestBuild:
    def test_build_produces_all_artifacts(self, built_index):
        index = built_index
        assert index.is_built
        assert set(index.summaries) == {0, 1, 2}
        assert set(index.compound_graphs) == {0, 1, 2}
        assert set(index.local_graphs) == {0, 1, 2}

    def test_build_report_fields(self, built_index):
        report = built_index.build_report
        assert report.max_original_edges > 0
        assert report.max_dag_edges > 0
        assert report.total_bytes > 0
        assert report.summary_bytes > 0
        assert report.build_seconds >= report.parallel_build_seconds >= 0

    def test_single_broadcast_round(self, built_index):
        # The index build performs exactly one all-to-all summary exchange.
        assert built_index.cluster.network.stats.rounds == 1

    def test_virtual_ids_below_real_ids(self, built_index, paper_example):
        graph, _, _ = paper_example
        highest = max(graph.vertices())
        for summary in built_index.summaries.values():
            for cls in list(summary.forward_classes) + list(summary.backward_classes):
                assert -2 * (highest + 1) <= cls.class_id < 0
                assert cls.class_id == class_id(cls.representative, cls.kind)

    def test_query_before_build_raises(self, paper_example):
        _, partitioning, _ = paper_example
        index = DSRIndex(partitioning)
        from repro.core.query import DistributedQueryExecutor

        with pytest.raises(RuntimeError):
            DistributedQueryExecutor(index)

    def test_index_sizes_requires_build(self, paper_example):
        _, partitioning, _ = paper_example
        index = DSRIndex(partitioning)
        with pytest.raises(RuntimeError):
            index.index_sizes()


class TestStatistics:
    def test_boundary_stats_per_partition(self, built_index):
        stats = built_index.boundary_stats(0)
        assert stats.num_vertices > 0
        assert stats.num_edges > 0
        # Partitions 2 and 3 contribute their entry handles.
        assert stats.num_forward_entries > 0
        assert stats.num_backward_entries > 0

    def test_total_boundary_entries_shrink_with_equivalence(self, paper_example):
        _, partitioning, _ = paper_example
        with_eq = DSRIndex(partitioning, use_equivalence=True)
        with_eq.build()
        without_eq = DSRIndex(partitioning, use_equivalence=False)
        without_eq.build()
        eq_forward, eq_backward = with_eq.total_boundary_entries()
        plain_forward, plain_backward = without_eq.total_boundary_entries()
        assert eq_forward <= plain_forward
        assert eq_backward <= plain_backward

    def test_scc_condensation_shrinks_dense_graphs(self):
        """Table 2's observation: highly connected graphs condense strongly."""
        graph = generators.social_graph(300, avg_degree=10, reciprocity=0.6, seed=9)
        partitioning = make_partitioning(graph, 4, strategy="metis", seed=9)
        index = DSRIndex(partitioning)
        report = index.build()
        assert report.max_dag_edges < report.max_original_edges

    def test_sparse_acyclic_graph_barely_condenses(self):
        """LUBM-style graphs barely benefit from SCC condensation."""
        graph = generators.hierarchy_graph(300, extra_edge_fraction=0.05, seed=9)
        partitioning = make_partitioning(graph, 4, strategy="metis", seed=9)
        index = DSRIndex(partitioning)
        report = index.build()
        assert report.max_dag_edges >= 0.5 * report.max_original_edges

