"""Strongly connected components and graph condensation.

SCC condensation is used throughout the paper: compound graphs are stored in
DAG-condensed form (Table 2 reports "Original" vs "DAG" sizes), equivalence
sets start from SCC grouping (Algorithm 3, line 2), and incremental updates
maintain condensed compound graphs (Section 3.3.3).

The implementation is an iterative Tarjan so that large, deep graphs do not
exhaust Python's recursion limit.  It runs over the graph's cached CSR
snapshot (:meth:`repro.graph.digraph.DiGraph.csr`): the DFS state lives in
dense lists indexed by CSR position and edges are scanned straight out of the
flat ``array('q')`` adjacency, so condensing a compound graph — which happens
on every index build and on every maintenance flush — costs no per-visit
hashing.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graph.digraph import DiGraph


def strongly_connected_components(graph: DiGraph) -> List[List[int]]:
    """Return the SCCs of ``graph`` as a list of vertex lists.

    The components are returned in reverse topological order of the
    condensation (i.e. a component appears after every component it can
    reach), which is a useful property for downstream dynamic programming.
    """
    csr = graph.csr()
    n = csr.num_vertices
    offsets, targets = csr.fwd_offsets, csr.fwd_targets
    ids = csr.ids

    UNVISITED = -1
    index: List[int] = [UNVISITED] * n
    lowlink: List[int] = [0] * n
    on_stack = bytearray(n)
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != UNVISITED:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        # Iterative Tarjan: each frame is [vertex, next-edge cursor].
        work: List[List[int]] = [[root, offsets[root]]]

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
                    component.append(ids[member])
                    if member == vertex:
                        break
                components.append(component)
    return components


def condense(graph: DiGraph) -> Tuple[DiGraph, Dict[int, int]]:
    """Condense ``graph`` into its DAG of SCCs.

    Returns ``(dag, vertex_to_component)`` where component ids are dense
    integers ``0..num_components-1`` and ``dag`` contains an edge between two
    components whenever the original graph has an edge between their members.
    Self-loops in the condensation are dropped.

    Component ids are **reverse-topological**: a component is numbered after
    every component it can reach (the order :func:`strongly_connected_components`
    emits them in), so every edge of ``dag`` goes to a strictly *lower* id.
    The DAG's CSR snapshot numbers its vertices by id, which makes
    :meth:`repro.graph.csr.CSRGraph.edges_descend` true for every
    condensation — the bitset kernels' one-pass sweep leans on exactly that
    (``tests/graph/test_scc.py`` pins it).
    """
    components = strongly_connected_components(graph)
    vertex_to_component: Dict[int, int] = {}
    for component_id, members in enumerate(components):
        for vertex in members:
            vertex_to_component[vertex] = component_id

    csr = graph.csr()
    offsets, targets = csr.fwd_offsets, csr.fwd_targets
    ids = csr.ids
    component_of = [vertex_to_component[vertex] for vertex in ids]

    dag = DiGraph()
    for component_id in range(len(components)):
        dag.add_vertex(component_id)
    for dense in range(csr.num_vertices):
        cu = component_of[dense]
        for succ in targets[offsets[dense] : offsets[dense + 1]]:
            cv = component_of[succ]
            if cu != cv:
                dag.add_edge(cu, cv)
    return dag, vertex_to_component


def component_members(
    vertex_to_component: Dict[int, int],
) -> Dict[int, List[int]]:
    """Invert a vertex→component mapping into component→members lists."""
    members: Dict[int, List[int]] = {}
    for vertex, component in vertex_to_component.items():
        members.setdefault(component, []).append(vertex)
    return members
