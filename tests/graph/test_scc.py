"""Tests for SCC computation and condensation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DSRConfig, open_engine
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.scc import (
    _dense_components,
    component_members,
    condense,
    strongly_connected_components,
)
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
                snapshots.append(state.local_graphs[pid].csr())
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
