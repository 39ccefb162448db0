"""Tests for BFS/DFS traversal primitives."""

import pytest

from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.traversal import (
    bfs_reachable_set,
    dfs_reachable_set,
    is_reachable,
    multi_source_reachability,
    reachable_pairs,
    topological_order,
)


@pytest.fixture
def diamond():
    #   0 -> 1 -> 3
    #   0 -> 2 -> 3 -> 4
    return DiGraph.from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])


class TestReachableSets:
    def test_bfs_includes_source(self, diamond):
        assert 0 in bfs_reachable_set(diamond, 0)

    def test_bfs_full_reachability(self, diamond):
        assert bfs_reachable_set(diamond, 0) == {0, 1, 2, 3, 4}
        assert bfs_reachable_set(diamond, 3) == {3, 4}

    def test_dfs_matches_bfs(self):
        graph = generators.random_digraph(60, 200, seed=9)
        for source in list(graph.vertices())[:15]:
            assert bfs_reachable_set(graph, source) == dfs_reachable_set(graph, source)

    def test_early_termination_covers_targets(self, diamond):
        visited = bfs_reachable_set(diamond, 0, targets={4})
        assert 4 in visited

    def test_is_reachable(self, diamond):
        assert is_reachable(diamond, 0, 4)
        assert not is_reachable(diamond, 4, 0)
        assert is_reachable(diamond, 2, 2)

    def test_is_reachable_within_a_vertex_set(self, diamond):
        # 0 reaches 4 only through 3: a set without 3 cuts every path, and
        # a set without 1 still leaves 0 -> 2 -> 3 -> 4.
        assert not is_reachable(diamond, 0, 4, within={0, 1, 2, 4})
        assert is_reachable(diamond, 0, 4, within={0, 2, 3, 4})
        assert not is_reachable(diamond, 0, 3, within={0, 3})
        assert is_reachable(diamond.csr(), 0, 4, within={0, 1, 3, 4})


class TestMultiSource:
    def test_multi_source_matches_single(self, diamond):
        result = multi_source_reachability(diamond, [0, 3], [1, 4])
        assert result[0] == {1, 4}
        assert result[3] == {4}

    def test_source_is_own_target(self, diamond):
        result = multi_source_reachability(diamond, [2], [2, 4])
        assert result[2] == {2, 4}

    def test_missing_source_gives_empty(self, diamond):
        result = multi_source_reachability(diamond, [99], [0])
        assert result[99] == set()

    def test_reachable_pairs(self, diamond):
        pairs = reachable_pairs(diamond, [0, 1], [3, 4])
        assert pairs == {(0, 3), (0, 4), (1, 3), (1, 4)}


class TestTopologicalOrder:
    def test_order_respects_edges(self):
        graph = generators.dag(40, 120, seed=2)
        order = topological_order(graph)
        position = {vertex: index for index, vertex in enumerate(order)}
        for u, v in graph.edges():
            assert position[u] < position[v]

    def test_cycle_raises(self):
        with pytest.raises(ValueError):
            topological_order(generators.cycle_graph(3))
