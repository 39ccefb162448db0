"""Property tests for the CSR bitset multi-source BFS kernel.

The kernel sweeps topologically numbered DAGs only; over any other graph it
runs on the graph's condensation, the way :class:`MultiSourceBFS` serves
it.  Either way it must agree with per-source :class:`DFSReachability` (and
the reference traversal) on random DAGs and cyclic graphs, including
queries where sources and targets overlap and pairs that are unreachable.
"""

import pytest

from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.traversal import multi_source_reachability
from repro.reachability import bitset_msbfs
from repro.reachability.dfs import DFSReachability
from repro.reachability.msbfs import MultiSourceBFS


def kernel_answer(graph, sources, targets, batch_size=512):
    return MultiSourceBFS(graph, batch_size=batch_size).set_reachability(sources, targets)


class TestAgainstPerSourceDFS:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_dags(self, seed):
        graph = generators.dag(60, 150, seed=seed)
        sources = list(range(0, 60, 4))
        targets = list(range(1, 60, 3))
        expected = DFSReachability(graph).set_reachability(sources, targets)
        assert kernel_answer(graph, sources, targets) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_random_cyclic_graphs(self, seed):
        graph = generators.random_digraph(70, 260, seed=seed)
        sources = list(range(0, 70, 5))
        targets = list(range(2, 70, 4))
        expected = DFSReachability(graph).set_reachability(sources, targets)
        assert kernel_answer(graph, sources, targets) == expected
        assert kernel_answer(graph, sources, targets) == multi_source_reachability(
            graph, sources, targets
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_sources_overlapping_targets(self, seed):
        graph = generators.social_graph(80, avg_degree=4, seed=seed)
        vertices = sorted(graph.vertices())
        shared = vertices[10:30]
        expected = DFSReachability(graph).set_reachability(shared, shared)
        result = kernel_answer(graph, shared, shared)
        assert result == expected
        for vertex in shared:
            assert vertex in result[vertex]  # every vertex reaches itself

    def test_unreachable_pairs(self):
        # Two disconnected chains: nothing crosses over.
        graph = DiGraph.from_edges([(0, 1), (1, 2), (10, 11), (11, 12)])
        result = kernel_answer(graph, [0, 10], [2, 12])
        assert result == {0: {2}, 10: {12}}

    def test_batching_matches_single_pass(self):
        graph = generators.random_digraph(90, 320, seed=9)
        sources = list(range(0, 90, 2))
        targets = list(range(1, 90, 2))
        whole = kernel_answer(graph, sources, targets)
        batched = kernel_answer(graph, sources, targets, batch_size=7)
        assert whole == batched


class TestEdgeCases:
    def test_missing_sources_and_targets(self):
        graph = DiGraph.from_edges([(0, 1)])
        result = kernel_answer(graph, [0, 404], [1, 505])
        assert result == {0: {1}, 404: set()}

    def test_empty_query_sides(self):
        graph = DiGraph.from_edges([(0, 1)])
        assert kernel_answer(graph, [], [1]) == {}
        assert kernel_answer(graph, [0], []) == {0: set()}

    def test_duplicate_sources(self):
        graph = DiGraph.from_edges([(0, 1), (1, 2)])
        result = kernel_answer(graph, [0, 0], [2])
        assert result == {0: {2}}

    def test_self_loop_and_cycle(self):
        graph = DiGraph.from_edges([(0, 0), (0, 1), (1, 0)])
        result = kernel_answer(graph, [0, 1], [0, 1])
        assert result == {0: {0, 1}, 1: {0, 1}}

    def test_invalid_batch_size(self):
        graph = DiGraph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            kernel_answer(graph, [0], [1], batch_size=0)

    def test_raw_kernel_refuses_unnumbered_snapshots(self):
        graph = DiGraph.from_edges([(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            bitset_msbfs.set_reachability_rows(graph.csr(), [0], None)

    def test_reverse_propagation(self):
        graph = DiGraph.from_edges([(2, 1), (1, 0)])
        csr = graph.csr()
        seen = bitset_msbfs.propagate(csr, {csr.index_of(0): 1}, reverse=True)
        reached = {csr.vertex_at(i) for i, bits in enumerate(seen) if bits}
        assert reached == {0, 1, 2}

    def test_single_pair_helper(self):
        index = MultiSourceBFS(DiGraph.from_edges([(0, 1), (1, 2), (2, 1)]))
        assert index.reachable(0, 2)
        assert index.reachable(2, 1)
        assert not index.reachable(2, 0)
