"""Compound graphs and condensations are CSR snapshots built in bulk.

Every compound graph ``G^C_i`` is assembled straight into a
:class:`~repro.graph.csr.CSRGraph` and condensed straight into another, with
no ``DiGraph`` in between.  Vertex ranks, packed masks and wire positions are
all read off those snapshots, so the snapshots must be *byte-identical* to
what the per-edge construction gives.  The reference here is that
construction, written out in the test: collect the local graph's vertices
and edges, then every remote summary's and the cut's, one at a time, and
snapshot them with :meth:`CSRGraph.from_edges` (class ids are negative,
which a ``DiGraph`` refuses); condense it into a ``DiGraph`` one component
edge at a time and snapshot that; OR every member into its component's mask
one bit at a time.  The flush builds both snapshots one way only, from
numpy arrays (:mod:`repro.reachability.kernels`), and is held to it.  After
a flush a condensation may keep an earlier epoch's numbering, so there it is
held to the reference up to relabelling: the same SCC partition, the same
DAG and the same expansion under the component map.
"""

import random

import pytest

from repro.api import DSRConfig, open_engine
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.scc import condense, strongly_connected_components
from repro.reachability import kernels


def reference_compound(partition_id, local_graph, summaries, cut_edges):
    """``G^C_i`` the per-edge way (Definition 6, one vertex or edge at a time)."""
    vertices = list(local_graph.vertices())
    edges = list(local_graph.edges())
    for other_id, summary in summaries.items():
        if other_id == partition_id:
            continue
        for vertex in summary.boundary_vertices:
            vertices.append(vertex)
        if summary.use_equivalence:
            for cls in summary.forward_classes:
                vertices.append(cls.class_id)
                for member in cls.members:
                    edges.append((member, cls.class_id))
            for cls in summary.backward_classes:
                vertices.append(cls.class_id)
                for member in cls.members:
                    edges.append((cls.class_id, member))
        for source, target in summary.class_edges:
            edges.append((source, target))
        for source, target in summary.member_edges:
            edges.append((source, target))
    for u, v in cut_edges:
        edges.append((u, v))
    return CSRGraph.from_edges(vertices, edges)


def reference_condensation(graph):
    """``(dag snapshot, vertex_to_component)`` with the DAG built per edge."""
    components = strongly_connected_components(graph)
    vertex_to_component = {
        vertex: component_id
        for component_id, members in enumerate(components)
        for vertex in members
    }
    dag = DiGraph()
    for component_id in range(len(components)):
        dag.add_vertex(component_id)
    for u, v in graph.edges():
        cu, cv = vertex_to_component[u], vertex_to_component[v]
        if cu != cv:
            dag.add_edge(cu, cv)
    return CSRGraph.from_digraph(dag), vertex_to_component


def reference_member_masks(vertex_ids, vertex_to_component, num_components):
    masks = [0] * num_components
    for rank, vertex in enumerate(vertex_ids):
        masks[vertex_to_component[vertex]] |= 1 << rank
    return tuple(masks)


def assert_same_snapshot(got, expected):
    assert got.ids == expected.ids
    assert got.fwd_offsets.tobytes() == expected.fwd_offsets.tobytes()
    assert got.fwd_targets.tobytes() == expected.fwd_targets.tobytes()
    assert got.to_bytes() == expected.to_bytes()


def assert_matches_reference(compound, reference_graph):
    """The compound's snapshot, condensation and masks equal the reference."""
    assert_same_snapshot(compound.graph, reference_graph)
    dag, vertex_to_component = reference_condensation(reference_graph)
    view = compound.condensation_view()
    assert isinstance(view.dag, CSRGraph)
    assert_same_snapshot(view.dag, dag)
    assert view.vertex_to_component == vertex_to_component
    assert view.vertex_rank.ids == compound.graph.ids
    assert view.expansion.fanout == reference_member_masks(
        view.vertex_rank.ids, vertex_to_component, dag.num_vertices
    )


def assert_matches_reference_up_to_relabelling(compound, reference_graph):
    """The compound's snapshot equals the reference byte for byte; its
    condensation equals a fresh one under a bijection of component ids:
    the same SCC partition, the same DAG and the same expansion."""
    assert_same_snapshot(compound.graph, reference_graph)
    dag, vertex_to_component = reference_condensation(reference_graph)
    view = compound.condensation_view()
    assert view.vertex_to_component.keys() == vertex_to_component.keys()
    relabel = {}
    for vertex, component in view.vertex_to_component.items():
        assert relabel.setdefault(component, vertex_to_component[vertex]) == (
            vertex_to_component[vertex]
        )
    assert sorted(relabel) == list(range(dag.num_vertices))
    assert sorted(relabel.values()) == list(range(dag.num_vertices))
    assert view.dag.num_vertices == dag.num_vertices and view.dag.edges_descend()
    assert sorted((relabel[a], relabel[b]) for a, b in view.dag.edges()) == sorted(
        dag.edges()
    )
    assert view.vertex_rank.ids == compound.graph.ids
    masks = reference_member_masks(
        view.vertex_rank.ids, vertex_to_component, dag.num_vertices
    )
    assert view.expansion.fanout == tuple(
        masks[relabel[component]] for component in range(dag.num_vertices)
    )


GRAPHS = {
    "dag": lambda: generators.dag(400, 1600, seed=7),
    "web": lambda: generators.web_graph(300, 5.5, seed=7),
}


@pytest.mark.parametrize("use_equivalence", [True, False], ids=["eq", "plain"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
class TestByteIdentity:
    """The array constructions of the index build and of every flush give
    the reference bytes, with every size-picked kernel call on its python
    loop and on numpy (``crossover``): the summaries the compound graphs
    are assembled from are swept and packed on that side."""

    def _engine(self, graph_name, use_equivalence):
        return open_engine(
            GRAPHS[graph_name](),
            DSRConfig(
                num_partitions=4,
                local_index="msbfs",
                use_equivalence=use_equivalence,
            ),
        )

    def _check_state(self, engine, check=assert_matches_reference):
        state = engine.index.current_state()
        cut_edges = engine.partitioning.cut_edges()
        for pid, compound in state.compound_graphs.items():
            reference = reference_compound(
                pid, state.local_graphs[pid], state.summaries, cut_edges
            )
            check(compound, reference)

    def test_index_build(self, graph_name, use_equivalence, crossover):
        engine = self._engine(graph_name, use_equivalence)
        try:
            self._check_state(engine)
        finally:
            engine.close()

    def test_after_flushes(self, graph_name, use_equivalence, crossover):
        engine = self._engine(graph_name, use_equivalence)
        rng = random.Random(11)
        try:
            for _ in range(3):
                edges = sorted(engine.graph.edges())
                for u, v in rng.sample(edges, 2):
                    engine.delete_edge(u, v)
                vertices = sorted(engine.graph.vertices())
                for _ in range(2):
                    u, v = rng.sample(vertices, 2)
                    engine.insert_edge(u, v)
                assert engine.flush_updates().epoch == engine.epoch
                self._check_state(engine, assert_matches_reference_up_to_relabelling)
        finally:
            engine.close()

    def test_after_isolated_vertex_insert(self, graph_name, use_equivalence, crossover):
        engine = self._engine(graph_name, use_equivalence)
        try:
            state = engine.index.current_state()
            before = {
                pid: reference_compound(
                    pid,
                    state.local_graphs[pid],
                    state.summaries,
                    engine.partitioning.cut_edges(),
                )
                for pid in state.compound_graphs
            }
            # An id above every real one: a genuinely new vertex.
            vertex = engine.insert_vertex(10**6, partition_id=1)
            assert engine.index.current_state() is state  # no new epoch
            for pid, compound in state.compound_graphs.items():
                if pid == 1:
                    before[pid] = CSRGraph.from_edges(
                        (*before[pid].ids, vertex), list(before[pid].edges())
                    )
                assert_matches_reference(compound, before[pid])
        finally:
            engine.close()


class TestBulkSnapshots:
    @pytest.mark.parametrize("seed", range(6))
    def test_from_edges_matches_from_digraph(self, seed):
        rng = random.Random(seed)
        vertices = rng.sample(range(500), 60)
        # Duplicates, self-loops and endpoints outside ``vertices``.
        edges = [
            (rng.choice(vertices), rng.choice(vertices + [600, 601]))
            for _ in range(300)
        ]
        edges += edges[:40]
        reference = DiGraph.from_edges(edges, vertices)
        assert_same_snapshot(CSRGraph.from_edges(vertices, edges), reference.csr())

    @pytest.mark.parametrize("stride", [1, 10**6], ids=["dense", "sparse"])
    @pytest.mark.parametrize("seed", range(4))
    def test_union_of_pieces_matches_from_edges(self, seed, stride):
        """Assembly from array pieces, on dense ids and on sparse ones."""
        rng = random.Random(seed)
        # Ints built at run time, so sharing them is observable.
        vertices = [int(str(v * stride + 10**6)) for v in rng.sample(range(500), 80)]
        groups = [vertices[:30], vertices[25:60], vertices[55:]]
        pieces = [
            kernels.np_edges_piece(
                group, [(rng.choice(group), rng.choice(group)) for _ in range(120)]
            )
            for group in groups
        ]
        # A cut-like piece: no vertices of its own, edges between groups.
        cut = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(60)]
        pieces.append(kernels.np_edges_piece((), cut + cut[:10]))
        edges = [
            edge for piece in pieces for edge in zip(piece[2].tolist(), piece[3].tolist())
        ]
        got = CSRGraph.from_sorted(*kernels.np_union_csr(pieces))
        assert_same_snapshot(got, CSRGraph.from_edges(vertices, edges))
        by_value = {v: v for v in vertices}
        assert all(vertex is by_value[vertex] for vertex in got.ids)

    @pytest.mark.parametrize("top", [7, 10**9], ids=["dense", "sparse"])
    @pytest.mark.parametrize("outside", [0, 5, 10**10])
    def test_union_refuses_an_endpoint_outside_the_pieces(self, outside, top):
        pieces = [
            kernels.np_edges_piece([1, 4, top], [(1, 4)]),
            kernels.np_edges_piece((), [(4, outside)]),
        ]
        with pytest.raises(ValueError, match="not a vertex"):
            kernels.np_union_csr(pieces)

    def test_from_edges_empty(self):
        assert_same_snapshot(CSRGraph.from_edges([], []), DiGraph().csr())
        assert_same_snapshot(
            CSRGraph.from_edges([3, 1], []), DiGraph.from_edges([], [1, 3]).csr()
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_condense_matches_per_edge_dag(self, seed):
        graph = generators.random_digraph(120, 60 + 40 * seed, seed=seed)
        graph.add_edge(3, 3)  # a self-loop never becomes a DAG edge
        dag, vertex_to_component = condense(graph)
        expected_dag, expected_map = reference_condensation(graph)
        assert_same_snapshot(dag, expected_dag)
        assert vertex_to_component == expected_map
        # A snapshot condenses exactly like the DiGraph it was taken of.
        again, again_map = condense(graph.csr())
        assert_same_snapshot(again, expected_dag)
        assert again_map == expected_map

    def test_snapshot_read_api_matches_digraph(self):
        graph = generators.random_digraph(40, 120, seed=3)
        csr = CSRGraph.from_edges(list(graph.vertices()), list(graph.edges()))
        assert sorted(csr.edges()) == sorted(graph.edges())
        assert list(csr.vertices()) == sorted(graph.vertices())
        assert csr.csr() is csr
        for u in graph.vertices():
            assert set(csr.successors(u)) == graph.successors(u)
        assert csr.successors(-1) == ()


def assert_same_iteration_order(got, expected):
    """Vertices, successor and predecessor sets all iterate alike."""
    assert list(got.vertices()) == list(expected.vertices())
    for vertex in expected.vertices():
        assert list(got.successors(vertex)) == list(expected.successors(vertex))
        assert list(got.predecessors(vertex)) == list(expected.predecessors(vertex))


class TestCopies:
    """Bulk ``copy`` / ``induced_subgraph`` against their per-edge versions.

    Equal is not enough: the partitioners walk these sets, so a copy whose
    sets iterate in another order partitions differently.
    """

    def test_copy_matches_per_edge_copy(self):
        graph = generators.web_graph(300, 5.5, seed=5)
        graph.remove_edge(*next(iter(graph.edges())))  # a set with a deleted slot
        expected = DiGraph()
        for vertex in graph.vertices():
            expected.add_vertex(vertex)
        for u, v in graph.edges():
            expected.add_edge(u, v)
        clone = graph.copy()
        assert_same_iteration_order(clone, expected)
        assert clone.num_edges == expected.num_edges

    def test_copy_is_deep_and_shares_the_snapshot(self):
        graph = generators.social_graph(50, seed=4)
        graph.add_vertex(90, label="ninety")
        snapshot = graph.csr()
        clone = graph.copy()
        assert clone.csr() is snapshot
        assert clone.vertex_by_label("ninety") == 90
        u, v = next(iter(graph.edges()))
        clone.remove_edge(u, v)
        # The clone drops the shared snapshot, the original keeps it.
        assert graph.has_edge(u, v) and not clone.has_edge(u, v)
        assert graph.csr() is snapshot
        assert clone.csr() is not snapshot and v not in clone.csr().successors(u)
        assert clone.add_vertex() == graph.add_vertex() == 91

    def test_induced_subgraph_matches_per_edge_construction(self):
        graph = generators.web_graph(200, 5.5, seed=2)
        graph.add_vertex(500, label="x")
        selected = {v for v in graph.vertices() if v % 3} | {500}
        expected = DiGraph()
        for vertex in selected:
            expected.add_vertex(vertex)
        for vertex in selected:
            for succ in graph.successors(vertex):
                if succ in selected:
                    expected.add_edge(vertex, succ)
        sub = graph.induced_subgraph(selected)
        assert_same_iteration_order(sub, expected)
        assert sub.num_edges == expected.num_edges
        assert sub.label_of(500) == "x"
        assert sub.add_vertex() == 501


class TestPublishedSnapshotsAreNotEdited:
    def test_edge_updates_leave_the_published_compound_alone(self):
        graph = generators.dag(60, 150, seed=3)
        engine = open_engine(graph, DSRConfig(num_partitions=2))
        try:
            state = engine.index.current_state()
            pid = engine.partitioning.partition_of(0)
            compound = state.compound_graphs[pid]
            snapshot, view = compound.graph, compound.condensation_view()
            before = snapshot.to_bytes()
            engine.delete_edge(0, 5)
            engine.insert_edge(5, 0)
            assert compound.graph is snapshot and snapshot.to_bytes() == before
            assert compound.condensation_view() is view
        finally:
            engine.close()
