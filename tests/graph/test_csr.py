"""Tests for the CSR snapshot: structure, caching and dirty-flag invalidation."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.scc import condense
from repro.reachability.msbfs import MultiSourceBFS


def assert_matches_digraph(csr: CSRGraph, graph: DiGraph) -> None:
    """Every adjacency fact of the snapshot must mirror the source graph."""
    assert csr.num_vertices == graph.num_vertices
    assert csr.num_edges == graph.num_edges
    assert set(csr.ids) == set(graph.vertices())
    for vertex in graph.vertices():
        assert set(csr.successors(vertex)) == set(graph.successors(vertex))
        assert set(csr.predecessors(vertex)) == set(graph.predecessors(vertex))
        index = csr.index_of(vertex)
        assert csr.vertex_at(index) == vertex
        assert csr.out_degree(index) == graph.out_degree(vertex)
        assert csr.in_degree(index) == graph.in_degree(vertex)


class TestStructure:
    def test_mirrors_random_graph(self):
        graph = generators.random_digraph(80, 300, seed=3)
        assert_matches_digraph(graph.csr(), graph)

    def test_mirrors_graph_with_gaps_in_ids(self):
        graph = DiGraph.from_edges([(5, 90), (90, 7), (7, 5), (200, 90)])
        assert_matches_digraph(graph.csr(), graph)

    def test_empty_graph(self):
        csr = DiGraph().csr()
        assert csr.num_vertices == 0
        assert csr.num_edges == 0

    def test_offsets_are_monotone_and_runs_sorted(self):
        graph = generators.web_graph(120, avg_degree=6, seed=1)
        csr = graph.csr()
        for i in range(csr.num_vertices):
            run = list(csr.out_neighbors(i))
            assert run == sorted(run)
            assert csr.fwd_offsets[i] <= csr.fwd_offsets[i + 1]
        assert csr.fwd_offsets[csr.num_vertices] == csr.num_edges

    def test_deterministic_across_insertion_order(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        a = DiGraph.from_edges(edges)
        b = DiGraph.from_edges(list(reversed(edges)))
        assert a.csr().ids == b.csr().ids
        assert a.csr().fwd_targets == b.csr().fwd_targets
        assert a.csr().rev_targets == b.csr().rev_targets

    def test_reverse_arrays_are_lazy(self):
        # Most consumers only walk forward; the reverse buffers must not be
        # paid for until something actually asks for them.
        graph = generators.random_digraph(40, 120, seed=6)
        csr = graph.csr()
        assert csr._rev_offsets is None
        forward_only = csr.nbytes()
        vertex = next(iter(graph.vertices()))
        assert set(csr.predecessors(vertex)) == set(graph.predecessors(vertex))
        assert csr._rev_offsets is not None
        assert csr.nbytes() > forward_only

    def test_missing_vertex_lookup(self):
        graph = DiGraph.from_edges([(0, 1)])
        csr = graph.csr()
        assert not csr.has_vertex(99)
        assert csr.successors(99) == ()
        with pytest.raises(KeyError):
            csr.index_of(99)


def _from_digraph_reference(graph):
    """The original per-vertex loop, frozen: each vertex's successors
    sorted by dense index, one run after another."""
    ids = tuple(sorted(graph.vertices()))
    index_of = {vertex: i for i, vertex in enumerate(ids)}
    fwd_offsets = array("q", bytes(8 * (len(ids) + 1)))
    fwd_targets = array("q")
    for i, vertex in enumerate(ids):
        fwd_targets.extend(sorted(index_of[w] for w in graph.successors(vertex)))
        fwd_offsets[i + 1] = len(fwd_targets)
    return CSRGraph(ids, index_of, fwd_offsets, fwd_targets)


class _Adjacency:
    """The read side ``from_digraph`` uses, over any ids: a ``DiGraph``
    refuses negative ones, the class vertices of a compound graph."""

    def __init__(self, vertices, edges):
        self._succ = {vertex: set() for vertex in vertices}
        for u, v in edges:
            self._succ.setdefault(u, set()).add(v)
            self._succ.setdefault(v, set())

    def vertices(self):
        return iter(self._succ)

    def successors(self, vertex):
        return self._succ[vertex]


class TestFromDigraphMatchesTheFrozenLoop:
    @given(
        st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), max_size=80),
        st.lists(st.integers(-10**6, 10**6), max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_byte_identical(self, edges, isolated):
        # Negative ids, isolated vertices (some far off the edges' id
        # span), self-loops and duplicate edges.
        graph = _Adjacency(isolated, edges)
        got, expected = CSRGraph.from_digraph(graph), _from_digraph_reference(graph)
        assert got.ids == expected.ids
        assert got._index_of == expected._index_of
        assert got.to_bytes() == expected.to_bytes()

    def test_a_digraph_and_an_empty_one(self):
        for graph in (generators.random_digraph(80, 300, seed=3), DiGraph()):
            assert graph.csr().to_bytes() == _from_digraph_reference(graph).to_bytes()


class TestCachingAndInvalidation:
    def test_snapshot_is_cached_until_mutation(self):
        graph = generators.random_digraph(30, 60, seed=1)
        assert graph.csr() is graph.csr()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(0, 17),
            lambda g: g.remove_edge(*next(iter(g.edges()))),
            lambda g: g.remove_vertex(3),
            lambda g: g.add_vertex(),
        ],
        ids=["add_edge", "remove_edge", "remove_vertex", "add_vertex"],
    )
    def test_every_mutation_invalidates(self, mutate):
        graph = generators.random_digraph(30, 60, seed=2)
        before = graph.csr()
        mutate(graph)
        after = graph.csr()
        assert after is not before
        assert_matches_digraph(after, graph)

    def test_noop_mutations_keep_snapshot(self):
        graph = DiGraph.from_edges([(0, 1), (1, 2)])
        snapshot = graph.csr()
        assert not graph.add_edge(0, 1)  # already present
        assert not graph.remove_edge(2, 0)  # never existed
        graph.add_vertex(1)  # already present
        assert graph.csr() is snapshot

    def test_remove_edge_regression_stale_snapshot_never_served(self):
        # The satellite-task regression: after remove_edge the old snapshot
        # (which still contains the edge) must not answer queries.
        graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        index = MultiSourceBFS(graph)
        assert index.reachable(0, 3)
        graph.remove_edge(1, 2)
        assert not index.reachable(0, 3)
        assert set(graph.csr().successors(1)) == set()

    def test_remove_vertex_regression_stale_snapshot_never_served(self):
        graph = DiGraph.from_edges([(0, 1), (1, 2), (2, 3)])
        index = MultiSourceBFS(graph)
        assert index.reachable(0, 3)
        graph.remove_vertex(2)
        assert not index.reachable(0, 3)
        assert not graph.csr().has_vertex(2)

    def test_insert_then_query_sees_new_edge(self):
        graph = DiGraph.from_edges([(0, 1), (2, 3)])
        index = MultiSourceBFS(graph)
        assert not index.reachable(0, 3)
        graph.add_edge(1, 2)
        assert index.reachable(0, 3)


class TestEdgesDescend:
    """The verified numbering property behind the one-pass bitset sweep."""

    @staticmethod
    def numbered_dag():
        return condense(generators.random_digraph(60, 150, seed=5))[0]

    def test_true_for_descending_edges_only(self):
        assert self.numbered_dag().csr().edges_descend()
        assert DiGraph().csr().edges_descend()
        assert DiGraph.from_edges([(5, 2), (9, 5), (9, 2)]).csr().edges_descend()
        # One ascending edge, a 2-cycle, a self-loop: each spoils it.
        assert not DiGraph.from_edges([(5, 2), (9, 5), (2, 9)]).csr().edges_descend()
        assert not DiGraph.from_edges([(5, 2), (2, 5)]).csr().edges_descend()
        assert not DiGraph.from_edges([(5, 2), (5, 5)]).csr().edges_descend()

    def test_recomputed_from_the_arrays_not_assumed(self):
        csr = self.numbered_dag().csr()
        assert csr.edges_descend()
        # A hand-built snapshot over ascending arrays must not inherit it.
        flipped = DiGraph.from_edges([(v, u) for u, v in self.numbered_dag().edges()]).csr()
        rebuilt = CSRGraph(flipped.ids, flipped._index_of, flipped.fwd_offsets, flipped.fwd_targets)
        assert not rebuilt.edges_descend()

    def test_survives_to_bytes(self):
        for graph, expected in (
            (self.numbered_dag(), True),
            (generators.random_digraph(40, 160, seed=4), False),
        ):
            csr = graph.csr()
            assert CSRGraph.from_bytes(csr.to_bytes()).edges_descend() is expected


class TestCompactSerialisation:
    """to_bytes()/from_bytes() — the shard hydration wire format."""

    def test_round_trip_mirrors_graph(self):
        graph = generators.random_digraph(60, 240, seed=9)
        restored = CSRGraph.from_bytes(graph.csr().to_bytes())
        assert_matches_digraph(restored, graph)

    def test_round_trip_is_byte_identical(self):
        graph = generators.random_digraph(40, 160, seed=4)
        payload = graph.csr().to_bytes()
        assert CSRGraph.from_bytes(payload).to_bytes() == payload

    def test_round_trip_with_gaps_in_ids(self):
        graph = DiGraph.from_edges([(10, 700), (700, 31), (31, 10), (5, 700)])
        restored = CSRGraph.from_bytes(graph.csr().to_bytes())
        assert_matches_digraph(restored, graph)
        assert restored.successors(10) == (700,)

    def test_empty_graph_round_trips(self):
        restored = CSRGraph.from_bytes(DiGraph().csr().to_bytes())
        assert restored.num_vertices == 0
        assert restored.num_edges == 0

    def test_reverse_arrays_are_rederived_not_shipped(self):
        graph = DiGraph.from_edges([(0, 1), (2, 1), (1, 3)])
        csr = graph.csr()
        csr.rev_offsets  # materialise the reverse half on the original
        payload = csr.to_bytes()
        restored = CSRGraph.from_bytes(payload)
        # The payload never contains the reverse arrays: its size is exactly
        # header + ids + forward offsets + forward targets, whether or not
        # the sender had materialised its reverse half.
        n, m = csr.num_vertices, csr.num_edges
        assert len(payload) == 20 + 8 * (n + (n + 1) + m)
        # ...yet the receiver re-derives identical in-neighbour runs.
        assert set(restored.predecessors(1)) == {0, 2}

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            CSRGraph.from_bytes(b"NOPE" + bytes(16))

    def test_truncated_payload_rejected(self):
        payload = generators.random_digraph(10, 30, seed=1).csr().to_bytes()
        with pytest.raises(ValueError):
            CSRGraph.from_bytes(payload[:-8])
        with pytest.raises(ValueError):
            CSRGraph.from_bytes(payload[:10])
