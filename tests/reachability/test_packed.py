"""Packed rows: VertexRank, byte serialisation and the bitset kernel's rows.

The kernel's rows must agree exactly with a plain multi-source traversal
and with every registered strategy's ``set_reachability`` over the same
condensation; that they agree over an engine's published condensations,
across updates, is ``tests/core/test_strategy_updates.py``.
"""

import random

import pytest

from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.scc import condense
from repro.graph.traversal import multi_source_reachability
from repro.reachability import bitset_msbfs, make_reachability_index
from repro.reachability.packed import (
    BitGather,
    VertexRank,
    iter_bits,
    popcount,
    row_from_bytes,
    row_to_bytes,
)

STRATEGIES = ["dfs", "msbfs", "bitset", "ferrari", "grail", "closure"]


class TestPackedPrimitives:
    def test_iter_bits_matches_binary(self):
        rng = random.Random(3)
        for _ in range(50):
            row = rng.getrandbits(rng.randrange(1, 300))
            expected = [i for i in range(row.bit_length()) if row >> i & 1]
            assert list(iter_bits(row)) == expected
            assert popcount(row) == len(expected)

    def test_iter_bits_empty(self):
        assert list(iter_bits(0)) == []

    def test_row_bytes_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            row = rng.getrandbits(rng.randrange(0, 500))
            assert row_from_bytes(row_to_bytes(row)) == row
        assert row_to_bytes(0) == b""
        assert row_from_bytes(b"") == 0

    def test_vertex_rank_pack_unpack(self):
        rank = VertexRank((5, 9, 11, 40))
        assert len(rank) == 4
        assert 9 in rank and 7 not in rank
        row = rank.pack([40, 5, 7])  # unknown id 7 skipped
        assert row == 0b1001
        assert rank.unpack(row) == [5, 40]
        assert rank.full_mask() == 0b1111

    def test_pack_and_scatter_match_the_per_bit_loop(self, crossover):
        # Both build a row with one pack_ranks over the sorted distinct
        # ranks; the per-bit OR loop they replaced is the oracle.
        rng = random.Random(11)
        for _ in range(60):
            width = rng.randrange(1, 400)
            ids = rng.sample(range(5 * width), width)
            rank = VertexRank(sorted(ids))
            vertices = [rng.choice(ids) for _ in range(rng.randrange(0, 2 * width))]
            vertices += [-1, 5 * width]  # unknown ids are skipped
            expected = 0
            for vertex in vertices:
                if vertex in rank.rank_of:
                    expected |= 1 << rank.rank_of[vertex]
            assert rank.pack(vertices) == expected
            index = [rng.randrange(width) for _ in range(rng.randrange(1, 300))]
            row = rng.getrandbits(len(index))
            expected = 0
            for j in iter_bits(row):
                expected |= 1 << index[j]
            assert BitGather(index).scatter(row) == expected

    def test_from_csr_matches_dense_numbering(self):
        graph = generators.random_digraph(40, 120, seed=2)
        csr = graph.csr()
        rank = VertexRank.from_csr(csr)
        assert rank.ids == csr.ids
        for vertex in graph.vertices():
            assert rank.rank_of[vertex] == csr.index_of(vertex)


class TestKernelRows:
    """The packed kernel over condensations (the only snapshots it sweeps)."""

    def test_rows_match_set_reachability(self):
        csr = condense(generators.random_digraph(60, 90, seed=4))[0]
        rank = VertexRank.from_csr(csr)
        vertices = sorted(csr.vertices())
        rng = random.Random(9)
        sources = rng.sample(vertices, 12)
        targets = rng.sample(vertices, 15)
        mask = rank.pack(targets)
        rows = bitset_msbfs.set_reachability_rows(csr, sources, mask)
        sets = multi_source_reachability(csr, sources, targets)
        for source in sources:
            assert set(rank.unpack(rows[source])) == sets[source]

    def test_rows_full_universe(self):
        dag, component_of = condense(DiGraph.from_edges([(1, 2), (2, 3), (3, 1), (3, 4)]))
        rank = VertexRank.from_csr(dag)
        rows = bitset_msbfs.set_reachability_rows(dag, [component_of[1]], None)
        assert set(rank.unpack(rows[component_of[1]])) == {component_of[1], component_of[4]}

    def test_unknown_source_and_empty_mask(self):
        graph = DiGraph.from_edges([(2, 1)])
        csr = graph.csr()
        rows = bitset_msbfs.set_reachability_rows(csr, [99], None)
        assert rows == {99: 0}
        rows = bitset_msbfs.set_reachability_rows(csr, [2], 0)
        assert rows == {2: 0}

    def test_batching_splits_agree(self):
        csr = condense(generators.random_digraph(50, 70, seed=6))[0]
        rank = VertexRank.from_csr(csr)
        sources = sorted(csr.vertices())[:20]
        mask = rank.full_mask()
        wide = bitset_msbfs.set_reachability_rows(csr, sources, mask)
        narrow = bitset_msbfs.set_reachability_rows(csr, sources, mask, batch_size=3)
        assert wide == narrow


@pytest.mark.parametrize("strategy", STRATEGIES)
class TestStrategyParity:
    """Kernel rows == packed ``set_reachability`` for every strategy."""

    def test_rows_match_sets(self, strategy):
        dag = condense(generators.social_graph(80, avg_degree=4, seed=11))[0]
        index = make_reachability_index(strategy, dag)
        rank = VertexRank.from_csr(dag)
        rng = random.Random(13)
        components = sorted(dag.vertices())
        sources = rng.sample(components, 10)
        targets = rng.sample(components, 12)
        rows = bitset_msbfs.set_reachability_rows(dag, sources, rank.pack(targets))
        sets = index.set_reachability(sources, targets)
        for source in sources:
            assert set(rank.unpack(rows[source])) == sets[source], (
                f"{strategy}: diverging row for source {source}"
            )

    def test_no_mask_covers_all_vertices(self, strategy):
        dag = condense(generators.random_digraph(40, 100, seed=21))[0]
        index = make_reachability_index(strategy, dag)
        rank = VertexRank.from_csr(dag)
        # The highest component ids: condensations number a component after
        # everything it reaches, so these reach the most.
        sources = sorted(dag.vertices())[-6:]
        rows = bitset_msbfs.set_reachability_rows(dag, sources, None)
        sets = index.set_reachability(sources, dag.vertices())
        for source in sources:
            assert set(rank.unpack(rows[source])) == sets[source]

    def test_condensed_rows_expand_to_the_cyclic_graph(self, strategy):
        # The kernel sweeps only condensations; expanding its component rows
        # through the members must give the strategy's answer on the cyclic
        # graph itself.
        # 45 components, the largest with 14 vertices.
        graph = generators.random_digraph(60, 100, seed=31)
        dag, component_of = condense(graph)
        members = {}
        for vertex, component in component_of.items():
            members.setdefault(component, set()).add(vertex)
        rank = VertexRank.from_csr(dag)
        vertices = sorted(graph.vertices())
        sources = vertices[::5]
        rows = bitset_msbfs.set_reachability_rows(
            dag, sorted({component_of[s] for s in sources}), None
        )
        sets = make_reachability_index(strategy, graph).set_reachability(sources, vertices)
        for source in sources:
            reached = set()
            for component in rank.unpack(rows[component_of[source]]):
                reached |= members[component]
            assert reached == sets[source], f"{strategy}: diverging row for source {source}"


class TestConcurrentDFS:
    """One DFSReachability instance must stay correct under concurrent use.

    The visited buffer is per-thread, so parallel traversals cannot
    truncate each other.
    """

    def test_threaded_queries_match_serial(self):
        import threading

        graph = generators.social_graph(150, avg_degree=4, seed=91)
        index = make_reachability_index("dfs", graph)
        vertices = sorted(graph.vertices())
        sources = vertices[:20]
        expected_sets = index.set_reachability(sources, vertices)

        failures = []

        def worker():
            for _ in range(10):
                if index.set_reachability(sources, vertices) != expected_sets:
                    failures.append("sets")

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
