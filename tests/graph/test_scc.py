"""Tests for SCC computation and condensation."""

import pytest

from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.scc import component_members, condense, strongly_connected_components
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
