"""Strongly connected components and graph condensation.

SCC condensation is used throughout the paper: compound graphs are stored in
DAG-condensed form (Table 2 reports "Original" vs "DAG" sizes), equivalence
sets start from SCC grouping (Algorithm 3, line 2), and incremental updates
maintain condensed compound graphs (Section 3.3.3).

Every entry point numbers components by :func:`_numbering` over a CSR
snapshot.  The trim step of Hong, Rodia and Olukotun (SC 2013) peels sinks
(numbered upwards from 0) and sources (downwards from ``k - 1``) round by
round over the CSR's arrays (:func:`repro.reachability.kernels.np_peel`);
an iterative Tarjan, safe from the recursion limit, numbers the cyclic core
left in between.  A peeled sink's edges go to earlier sinks, a source's to
later sources, the core or sinks, the core's to the core or sinks: every
condensation edge descends.  A graph whose first round would peel under
:data:`PEEL_MIN_SHARE` of its vertices goes straight to Tarjan.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph

#: Anything with a CSR snapshot: a mutable graph or a snapshot itself.
GraphLike = Union[DiGraph, CSRGraph]


#: The least share of its vertices a graph's first peel round must remove, or
#: Tarjan numbers it alone.  The web rig's compound graphs remove 0.3–0.4 %
#: and keep > 99 % as core, so rounds would only cost their array passes; the
#: DAG rig's remove 9–10 % and keep a core of 10–21 %.
PEEL_MIN_SHARE = 0.005


def _dense_components(
    csr: CSRGraph, first_root: int = 0, core: Optional[Sequence[int]] = None
) -> List[List[int]]:
    """Tarjan over ``csr``: SCCs as lists of dense indices, reverse-topological.

    DFS roots are taken in dense order from ``first_root``, wrapping round
    to the indices below it.  ``core`` (ascending dense indices, default
    all) restricts the roots to those vertices, none of which may have an
    edge out of them: :func:`_numbering` passes the peel's core over the
    core's own edges.
    """
    n = csr.num_vertices
    offsets, targets = csr.fwd_offsets.tolist(), csr.fwd_targets.tolist()

    UNVISITED = -1
    #: A finished vertex's DFS number: above every live one, so it never
    #: lowers a lowlink (the "on the stack" test of the textbook version).
    DONE = n
    index: List[int] = [UNVISITED] * n
    core = range(n) if core is None else core
    split = bisect_left(core, first_root)
    lowlink: List[int] = [0] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in chain(core[split:], core[:split]):
        if index[root] != UNVISITED:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        # Iterative Tarjan: each frame is (vertex, its successor iterator),
        # resumed where the descent into a fresh successor left it.
        work = [(root, iter(targets[offsets[root] : offsets[root + 1]]))]

        while work:
            vertex, successor_iter = work[-1]
            for succ in successor_iter:
                number = index[succ]
                if number == UNVISITED:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    work.append((succ, iter(targets[offsets[succ] : offsets[succ + 1]])))
                    break
                if number < lowlink[vertex]:
                    lowlink[vertex] = number
            else:
                work.pop()
                low = lowlink[vertex]
                if work:
                    parent = work[-1][0]
                    if low < lowlink[parent]:
                        lowlink[parent] = low
                if low == index[vertex]:
                    component = []
                    while True:
                        member = stack.pop()
                        index[member] = DONE
                        component.append(member)
                        if member == vertex:
                            break
                    components.append(component)
    return components


def _first_real(csr: CSRGraph) -> int:
    """The dense index Tarjan's roots start from: the first non-negative id.

    Negative ids are class vertices (:func:`repro.core.equivalence.class_id`)
    and sort first; starting the roots at the real vertices numbers a
    compound graph's components as when class ids sorted above the real
    ones.  The numbering is reverse-topological either way, but it decides
    how far a narrow one-pass sweep runs (the python loop of
    :mod:`repro.reachability.bitset_msbfs` starts at the highest seed):
    rooting at the class vertices first numbered the query sources' components
    ≈ 20 % higher on the spine's DAG rig.  A graph of real vertices only
    starts at 0, plain dense order.
    """
    return bisect_left(csr.ids, 0)


def _numbering(csr: CSRGraph) -> Tuple[Sequence[int], int]:
    """``(component_of, k)``: every dense index's reverse-topological
    component (an int64 array) and their count — peel, then Tarjan."""
    # Imported here: repro.reachability imports this module.
    from repro.reachability import kernels

    n, peel = csr.num_vertices, kernels.np_peel(csr, PEEL_MIN_SHARE)
    if peel is None:
        return kernels.np_component_of(_dense_components(csr, _first_real(csr)), n)
    sinks, sources, core, core_csr = peel
    core_graph = CSRGraph(csr.ids, csr._index_of, *core_csr)
    components = _dense_components(core_graph, _first_real(csr), core)
    return kernels.np_component_of(components, n, sinks, sources)


def strongly_connected_components(graph: GraphLike) -> List[List[int]]:
    """Return the SCCs of ``graph`` as a list of vertex lists.

    The components are returned in reverse topological order of the
    condensation (i.e. a component appears after every component it can
    reach), which is a useful property for downstream dynamic programming;
    list ``i``, ids ascending, is component ``i`` of :func:`condense`.
    """
    csr = graph.csr()
    component_of, k = _numbering(csr)
    components: List[List[int]] = [[] for _ in range(k)]
    for vertex, component in zip(csr.ids, component_of.tolist()):
        components[component].append(vertex)
    return components


def condense(graph: GraphLike) -> Tuple[CSRGraph, Dict[int, int]]:
    """Condense ``graph`` into its DAG of SCCs.

    Returns ``(dag, vertex_to_component)`` where component ids are dense
    integers ``0..num_components-1`` and ``dag`` — an immutable
    :class:`~repro.graph.csr.CSRGraph` whose vertex ids *are* the component
    ids — contains an edge between two components whenever the original
    graph has an edge between their members.  Self-loops in the
    condensation are dropped.

    Component ids are **reverse-topological**: a component is numbered after
    every component it can reach (the order :func:`strongly_connected_components`
    emits them in), so every edge of ``dag`` goes to a strictly *lower* id
    and :meth:`repro.graph.csr.CSRGraph.edges_descend` is true for every
    condensation — the bitset kernels' one-pass sweep leans on exactly that
    (``tests/graph/test_scc.py`` pins it).  :func:`condense_dense` is the
    same condensation keyed by dense index.
    """
    csr = graph.csr()
    dag, component_of = condense_dense(csr)
    return dag, dict(zip(csr.ids, component_of.tolist()))


def condense_dense(graph: GraphLike) -> Tuple[CSRGraph, Sequence[int]]:
    """:func:`condense` with ``component_of[i]`` for dense vertex index ``i``.

    :func:`_numbering` fixes the component numbering (``component_of`` is
    an int64 numpy array); the DAG is then emitted by
    :func:`condensation_dag`.
    """
    csr = graph.csr()
    component_of, k = _numbering(csr)
    return condensation_dag(csr, component_of, k), component_of


def condensation_dag(csr: CSRGraph, component_of: Sequence[int], k: int) -> CSRGraph:
    """The DAG of ``csr``'s edges between the ``k`` components of ``component_of``.

    Emitted as CSR buffers directly, by one sort of the component pairs of
    all edges (:func:`repro.reachability.kernels.np_condense`) —
    byte-identical to snapshotting a ``DiGraph`` built from the same edges,
    without building one.  ``component_of`` is an int64 numpy array: a
    fresh Tarjan's (:func:`condense_dense`) or one kept from an earlier
    snapshot whose numbering still holds for ``csr``
    (:class:`repro.core.compound_graph.CondensedReachability`).
    """
    from repro.reachability import kernels

    return CSRGraph.from_sorted(tuple(range(k)), *kernels.np_condense(csr, component_of, k))


def numbered_dag(graph: GraphLike) -> Tuple[CSRGraph, Dict[int, int]]:
    """``graph`` as a topologically numbered DAG snapshot, plus vertex → dense index.

    A snapshot whose every edge already descends (every condensation, see
    :meth:`~repro.graph.csr.CSRGraph.edges_descend`) is used as it is;
    anything else is condensed first.  Either way ascending dense indices
    are a reverse topological order, which is all the label-building
    strategies (closure, FERRARI, GRAIL) need to number and sweep the DAG.
    """
    csr = graph.csr()
    if csr.edges_descend():
        return csr, csr._index_of
    return condense(csr)


def component_members(
    vertex_to_component: Dict[int, int],
) -> Dict[int, List[int]]:
    """Invert a vertex→component mapping into component→members lists."""
    members: Dict[int, List[int]] = {}
    for vertex, component in vertex_to_component.items():
        members.setdefault(component, []).append(vertex)
    return members
