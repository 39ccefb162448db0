"""Tests for SCC computation and condensation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DSRConfig, open_engine
from repro.graph import generators
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.scc import (
    PEEL_MIN_SHARE,
    _dense_components,
    _first_real,
    component_members,
    condense,
    condense_dense,
    numbered_dag,
    strongly_connected_components,
)
from repro.reachability import kernels
from repro.graph.traversal import is_reachable, topological_order


def scc_sets(graph):
    return {frozenset(component) for component in strongly_connected_components(graph)}


class TestStronglyConnectedComponents:
    def test_single_cycle_is_one_component(self):
        graph = generators.cycle_graph(5)
        assert scc_sets(graph) == {frozenset(range(5))}

    def test_path_graph_all_singletons(self):
        graph = generators.path_graph(6)
        assert scc_sets(graph) == {frozenset([v]) for v in range(6)}

    def test_two_cycles_bridged(self):
        graph = DiGraph.from_edges(
            [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)]
        )
        assert scc_sets(graph) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_isolated_vertices(self):
        graph = DiGraph()
        graph.add_vertex(0)
        graph.add_vertex(1)
        assert scc_sets(graph) == {frozenset({0}), frozenset({1})}

    def test_empty_graph(self):
        assert strongly_connected_components(DiGraph()) == []

    def test_deep_chain_no_recursion_error(self):
        # 20k-vertex chain: a recursive Tarjan would overflow Python's stack.
        graph = generators.path_graph(20_000)
        components = strongly_connected_components(graph)
        assert len(components) == 20_000

    def test_scc_members_mutually_reachable(self):
        graph = generators.random_digraph(60, 200, seed=4)
        for component in strongly_connected_components(graph):
            for u in component:
                for v in component:
                    assert is_reachable(graph, u, v)


class TestCondense:
    def test_condensation_is_dag(self):
        graph = generators.random_digraph(80, 300, seed=1)
        dag, _ = condense(graph)
        # topological_order raises on cycles.
        order = topological_order(dag)
        assert len(order) == dag.num_vertices

    def test_condensation_preserves_reachability(self):
        graph = generators.random_digraph(50, 160, seed=2)
        dag, mapping = condense(graph)
        for u in list(graph.vertices())[:10]:
            for v in list(graph.vertices())[:10]:
                assert is_reachable(graph, u, v) == is_reachable(
                    dag, mapping[u], mapping[v]
                )

    @pytest.mark.parametrize("seed", range(8))
    def test_component_ids_are_reverse_topological(self, seed):
        # The numbering contract the one-pass bitset sweep leans on: a
        # component is numbered after everything it reaches, so every DAG
        # edge goes to a strictly lower id and the DAG's snapshot says so.
        graph = generators.random_digraph(70, 40 + 25 * seed, seed=seed)
        components = strongly_connected_components(graph)
        dag, mapping = condense(graph)
        for component_id, members in enumerate(components):
            assert {mapping[vertex] for vertex in members} == {component_id}
        assert sorted(dag.vertices()) == list(range(len(components)))
        assert all(v < u for u, v in dag.edges())
        assert dag.csr().edges_descend()

    def test_cycle_condenses_to_single_vertex(self):
        dag, mapping = condense(generators.cycle_graph(7))
        assert dag.num_vertices == 1
        assert dag.num_edges == 0
        assert len(set(mapping.values())) == 1

    def test_component_members_inverse(self):
        graph = generators.random_digraph(30, 90, seed=3)
        _, mapping = condense(graph)
        members = component_members(mapping)
        for component, vertices in members.items():
            for vertex in vertices:
                assert mapping[vertex] == component
        assert sum(len(v) for v in members.values()) == graph.num_vertices


def _dense_components_reference(csr):
    """The original Tarjan, frozen: each DFS frame is a ``[vertex, cursor]``
    pair scanning the flat CSR arrays.  The production version resumes one
    successor iterator per frame and must emit the very same components, in
    the same order, each listing its members in the same order."""
    n = csr.num_vertices
    offsets, targets = csr.fwd_offsets, csr.fwd_targets

    UNVISITED = -1
    index = [UNVISITED] * n
    lowlink = [0] * n
    on_stack = bytearray(n)
    stack = []
    components = []
    counter = 0

    for root in range(n):
        if index[root] != UNVISITED:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work = [[root, offsets[root]]]

        while work:
            frame = work[-1]
            vertex, cursor = frame
            end = offsets[vertex + 1]
            advanced = False
            while cursor < end:
                succ = targets[cursor]
                cursor += 1
                if index[succ] == UNVISITED:
                    frame[1] = cursor
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = 1
                    work.append([succ, offsets[succ]])
                    advanced = True
                    break
                if on_stack[succ] and index[succ] < lowlink[vertex]:
                    lowlink[vertex] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[vertex] < lowlink[parent]:
                    lowlink[parent] = lowlink[vertex]
            if lowlink[vertex] == index[vertex]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    component.append(member)
                    if member == vertex:
                        break
                components.append(component)
    return components


def _spine_snapshots(graph):
    """The graph, and every local and compound graph an engine over it
    condenses at build and over two seeded flushes."""
    snapshots = [graph.csr()]
    engine = open_engine(graph, DSRConfig(num_partitions=4, local_index="msbfs"))
    rng = random.Random(3)
    try:
        for flush in range(3):
            state = engine.index.current_state()
            for pid in sorted(state.compound_graphs):
                snapshots.append(state.compound_graphs[pid].local_snapshot)
                snapshots.append(state.compound_graphs[pid].graph)
            if flush == 2:
                break
            for u, v in rng.sample(sorted(engine.graph.edges()), 4):
                engine.delete_edge(u, v)
            vertices = sorted(engine.graph.vertices())
            for _ in range(8):
                engine.insert_edge(*rng.sample(vertices, 2))
            engine.flush_updates()
    finally:
        engine.close()
    return snapshots


class TestTarjanMatchesTheFrozenOriginal:
    @pytest.mark.parametrize(
        "make_graph",
        [
            lambda: generators.dag(2000, 8000, seed=7),
            lambda: generators.web_graph(1000, 5.5, seed=7),
        ],
        ids=["spine-dag", "spine-web"],
    )
    def test_spine_graphs(self, make_graph):
        for csr in _spine_snapshots(make_graph()):
            assert _dense_components(csr) == _dense_components_reference(csr)

    @given(
        st.lists(
            st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=90
        ),
        st.integers(0, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_graphs(self, edges, isolated):
        graph = DiGraph.from_edges(edges)
        for extra in range(isolated):
            graph.add_vertex(100 + extra)
        csr = graph.csr()
        assert _dense_components(csr) == _dense_components_reference(csr)


# ---------------------------------------------------------------------- #
# peel, then Tarjan
# ---------------------------------------------------------------------- #
@st.composite
def fringed_graphs(draw):
    """A cyclic core planted between an acyclic in-fringe and out-fringe.

    The in-fringe is a DAG feeding the core, the out-fringe a DAG the core
    feeds, and the core holds random edges (cycles, and possibly DAG
    stretches between them).  Any part may be empty, so pure DAGs and pure
    cycles are drawn too; self-loops land anywhere, isolated vertices may
    join, and the ids are shuffled and may be negative (class ids).
    """
    # Ids 0.. hold the in-fringe, then the core, then the out-fringe.
    sizes = [draw(st.integers(0, 12)) for _ in range(3)]
    core = list(range(sizes[0], sizes[0] + sizes[1]))
    n = sum(sizes)
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges = []
    if n:
        for u, v in draw(st.lists(pairs, max_size=4 * n)):
            u, v = min(u, v), max(u, v)
            in_core = core and core[0] <= u and v <= core[-1]
            # Fringe edges run forward; the core takes both directions.
            edges.append((v, u) if in_core and draw(st.booleans()) else (u, v))
        if core and draw(st.booleans()):
            edges += list(zip(core, core[1:] + core[:1]))
        edges += [(v, v) for v in draw(st.lists(st.sampled_from(range(n)), max_size=3))]
    isolated = draw(st.integers(0, 3))
    labels = draw(st.permutations(range(n + isolated)))
    low = draw(st.sampled_from([0, -20, -(n + isolated) // 2]))
    ids = [low + label for label in labels]
    return CSRGraph.from_edges(ids, [(ids[u], ids[v]) for u, v in edges])


def assert_peel_then_tarjan(csr):
    """The four entry points agree, on the reference's SCC partition, with
    every condensation edge descending."""
    ids = csr.ids
    reference = {frozenset(ids[m] for m in c) for c in _dense_components_reference(csr)}
    components = strongly_connected_components(csr)
    assert {frozenset(c) for c in components} == reference
    dag, mapping = condense(csr)
    assert mapping == {v: i for i, members in enumerate(components) for v in members}
    dense_dag, component_of = condense_dense(csr)
    assert component_of.tolist() == [mapping[v] for v in ids]
    assert dense_dag.to_bytes() == dag.to_bytes()
    assert sorted(dag.vertices()) == list(range(len(components)))
    assert all(v < u for u, v in dag.edges())
    assert dag.edges_descend()
    if not csr.edges_descend():
        numbered, numbered_map = numbered_dag(csr)
        assert numbered.to_bytes() == dag.to_bytes() and numbered_map == mapping


class TestPeelThenTarjan:
    @given(fringed_graphs())
    @settings(max_examples=300, deadline=None)
    def test_generated_graphs(self, csr):
        assert_peel_then_tarjan(csr)

    @given(fringed_graphs())
    @settings(max_examples=150, deadline=None)
    def test_the_core_is_what_no_round_peels(self, csr):
        # Every vertex of a cycle stays; every core vertex keeps a core
        # predecessor and a core successor (a self-loop is no edge).
        peel = kernels.np_peel(csr, 0.0)
        if peel is None:
            # Nothing to peel: every vertex has an in-edge and an out-edge.
            assert all(csr.successors(v) and csr.predecessors(v) for v in csr.ids)
            return
        sinks, sources, core, _ = peel
        core = set(core)
        assert sorted(core | set(sinks.tolist()) | set(sources.tolist())) == list(
            range(csr.num_vertices)
        )
        for component in _dense_components_reference(csr):
            if len(component) > 1:
                assert set(component) <= core
        index_of = csr._index_of
        for vertex in core:
            successors = {index_of[w] for w in csr.successors(csr.ids[vertex])} - {vertex}
            predecessors = {index_of[w] for w in csr.predecessors(csr.ids[vertex])} - {vertex}
            assert successors & core and predecessors & core

    @pytest.mark.parametrize(
        "graph",
        [
            generators.dag(300, 900, seed=1),
            generators.cycle_graph(50),
            generators.path_graph(400),
            DiGraph.from_edges([(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 3), (3, 3)]),
        ],
        ids=["dag", "cycle", "path", "self-loops"],
    )
    def test_fixed_shapes(self, graph):
        assert_peel_then_tarjan(graph.csr())

    def test_a_dag_peels_to_nothing(self):
        peel = kernels.np_peel(generators.dag(300, 900, seed=1).csr(), PEEL_MIN_SHARE)
        assert peel is not None and peel[2] == []

    @given(st.integers(20, 150), st.lists(st.tuples(st.integers(), st.integers()), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_below_the_gate_the_numbering_is_tarjans(self, n, chords):
        # A Hamiltonian cycle plus chords: no vertex is a sink or a source,
        # so the first round would peel nothing and Tarjan numbers the
        # graph alone, exactly as the frozen original does.
        edges = [(v, (v + 1) % n) for v in range(n)]
        edges += [(u % n, v % n) for u, v in chords]
        csr = DiGraph.from_edges(edges).csr()
        assert kernels.np_peel(csr, PEEL_MIN_SHARE) is None
        expected = [0] * n
        for component_id, members in enumerate(_dense_components_reference(csr)):
            for member in members:
                expected[member] = component_id
        assert condense_dense(csr)[1].tolist() == expected

    def test_the_web_rigs_compound_graphs_fall_through(self):
        snapshots = _spine_snapshots(generators.web_graph(1000, 5.5, seed=7))
        compound = [csr for csr in snapshots if csr.ids and csr.ids[0] < 0]
        assert compound
        for csr in compound:
            assert kernels.np_peel(csr, PEEL_MIN_SHARE) is None
            components = _dense_components(csr, _first_real(csr))
            assert condense_dense(csr)[1].tolist() == (
                kernels.np_component_of(components, csr.num_vertices)[0].tolist()
            )
