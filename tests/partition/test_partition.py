"""Tests for the GraphPartitioning abstraction (cut, boundaries, subqueries)."""

import pytest

from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.partition.partition import GraphPartitioning, PartitioningError, make_partitioning


@pytest.fixture
def simple_partitioning():
    # 0,1,2 in partition 0; 3,4,5 in partition 1; edges crossing both ways.
    graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
    assignment = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    return graph, GraphPartitioning(graph, assignment, 2)


class TestBasics:
    def test_partition_of(self, simple_partitioning):
        _, part = simple_partitioning
        assert part.partition_of(0) == 0
        assert part.partition_of(4) == 1

    def test_vertices_of(self, simple_partitioning):
        _, part = simple_partitioning
        assert part.vertices_of(0) == {0, 1, 2}
        assert part.vertices_of(1) == {3, 4, 5}

    def test_local_subgraph_is_vertex_induced(self, simple_partitioning):
        _, part = simple_partitioning
        local = part.local_subgraph(0)
        assert set(local.edges()) == {(0, 1), (1, 2)}

    def test_missing_assignment_raises(self):
        graph = DiGraph.from_edges([(0, 1)])
        with pytest.raises(PartitioningError):
            GraphPartitioning(graph, {0: 0}, 1)

    def test_partition_id_out_of_range(self, simple_partitioning):
        _, part = simple_partitioning
        with pytest.raises(PartitioningError):
            part.vertices_of(5)

    def test_unassigned_vertex_lookup_raises(self, simple_partitioning):
        _, part = simple_partitioning
        with pytest.raises(PartitioningError):
            part.partition_of(99)


class TestCutAndBoundaries:
    def test_cut_edges(self, simple_partitioning):
        _, part = simple_partitioning
        assert set(part.cut_edges()) == {(2, 3), (5, 0), (1, 4)}
        assert part.cut_size() == 3

    def test_boundaries_definition3(self, simple_partitioning):
        _, part = simple_partitioning
        assert part.in_boundaries(0) == {0}
        assert part.out_boundaries(0) == {2, 1}
        assert part.in_boundaries(1) == {3, 4}
        assert part.out_boundaries(1) == {5}

    def test_cut_graph_vertices_are_boundaries(self, simple_partitioning):
        _, part = simple_partitioning
        cut = part.cut_graph()
        assert set(cut.vertices()) == part.boundary_vertices()
        assert cut.num_edges == part.cut_size()

    def test_edge_updates_report_the_boundary_sets_they_change(self, simple_partitioning):
        graph, part = simple_partitioning
        # 2 is already in O_0 and 4 already in I_1: no boundary set changes.
        graph.add_edge(2, 4)
        assert part.edge_added(2, 4) == set()
        # 0 enters O_0; 3 is already in I_1.
        graph.add_edge(0, 3)
        assert part.edge_added(0, 3) == {0}
        # 3 enters O_1 and 2 enters I_0.
        graph.add_edge(3, 2)
        assert part.edge_added(3, 2) == {0, 1}
        assert part.edge_added(3, 2) == set()  # already recorded
        assert part.edge_added(0, 1) == set()  # local
        # Removing the last cut edge of a boundary removes it again.
        assert part.edge_removed(3, 2) == {0, 1}
        assert part.edge_removed(0, 3) == {0}
        assert part.edge_removed(2, 4) == set()
        assert part.edge_removed(2, 4) == set()  # no longer cut
        assert part.out_boundaries(0) == {2, 1}
        assert part.in_boundaries(0) == {0}
        assert part.out_boundaries(1) == {5}
        assert part.in_boundaries(1) == {3, 4}

    def test_paper_example_boundaries(self):
        graph, assignment = generators.paper_example_graph()
        part = GraphPartitioning(graph, assignment, 3)
        labels = lambda vs: {graph.label_of(v) for v in vs}
        assert labels(part.in_boundaries(0)) == {"f"}
        assert labels(part.out_boundaries(0)) == {"b", "e"}
        assert labels(part.in_boundaries(1)) == {"c", "g", "h"}
        assert labels(part.out_boundaries(1)) == {"i"}
        assert labels(part.in_boundaries(2)) == {"m", "n"}
        assert labels(part.out_boundaries(2)) == {"o"}


class TestQuerySplitAndStats:
    def test_split_query(self, simple_partitioning):
        _, part = simple_partitioning
        split = part.split_query([0, 4], [2, 5])
        assert split[0] == ({0}, {2})
        assert split[1] == ({4}, {5})

    def test_split_query_skips_empty_partitions(self):
        graph = DiGraph.from_edges([(0, 1), (2, 3)])
        part = GraphPartitioning(graph, {0: 0, 1: 0, 2: 1, 3: 1}, 2)
        split = part.split_query([0], [1])
        assert list(split.keys()) == [0]

    def test_summary_fields(self, simple_partitioning):
        _, part = simple_partitioning
        summary = part.summary()
        assert summary["num_partitions"] == 2
        assert summary["cut_edges"] == 3
        assert 0 < summary["cut_fraction"] < 1

    def test_edge_balance_positive(self, simple_partitioning):
        _, part = simple_partitioning
        assert part.edge_balance() >= 1.0


class TestFactory:
    def test_make_partitioning_strategies(self):
        graph = generators.random_digraph(60, 150, seed=1)
        for strategy in ("hash", "metis"):
            part = make_partitioning(graph, 3, strategy=strategy)
            assert part.num_partitions == 3
            assert sum(len(part.vertices_of(i)) for i in range(3)) == 60

    def test_unknown_strategy(self):
        graph = generators.random_digraph(10, 20, seed=1)
        with pytest.raises(ValueError):
            make_partitioning(graph, 2, strategy="zigzag")

    def test_invalid_partition_count(self):
        graph = generators.random_digraph(10, 20, seed=1)
        with pytest.raises(PartitioningError):
            make_partitioning(graph, 0)
