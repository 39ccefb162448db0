"""Graph traversal primitives: BFS, DFS and multi-source reachability.

These are the *reference* implementations: deliberately simple walks over the
mutable ``dict``/``set`` adjacency, used as ground truth by the test suite
and as the "legacy per-source" baseline in ``benchmarks/bench_csr_kernel.py``.
The production hot paths do not traverse this way — they run over the CSR
snapshot via :mod:`repro.reachability.bitset_msbfs` and the CSR-backed
strategies in :mod:`repro.reachability`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Optional, Set

from repro.graph.digraph import DiGraph
from repro.graph.scc import GraphLike


def bfs_reachable_set(
    graph: DiGraph,
    source: int,
    targets: Optional[Set[int]] = None,
) -> Set[int]:
    """Return all vertices reachable from ``source`` (including itself).

    If ``targets`` is given, the search stops early once every target has been
    visited — the return value is then the set of *visited* vertices, which is
    guaranteed to contain every reachable target.
    """
    visited = {source}
    remaining = set(targets) - {source} if targets is not None else None
    queue = deque([source])
    while queue:
        if remaining is not None and not remaining:
            break
        vertex = queue.popleft()
        for succ in graph.successors(vertex):
            if succ not in visited:
                visited.add(succ)
                if remaining is not None:
                    remaining.discard(succ)
                queue.append(succ)
    return visited


def dfs_reachable_set(
    graph: DiGraph,
    source: int,
    targets: Optional[Set[int]] = None,
) -> Set[int]:
    """Iterative DFS variant of :func:`bfs_reachable_set`."""
    visited = {source}
    remaining = set(targets) - {source} if targets is not None else None
    stack = [source]
    while stack:
        if remaining is not None and not remaining:
            break
        vertex = stack.pop()
        for succ in graph.successors(vertex):
            if succ not in visited:
                visited.add(succ)
                if remaining is not None:
                    remaining.discard(succ)
                stack.append(succ)
    return visited


def is_reachable(
    graph: GraphLike, source: int, target: int, within: Optional[Set[int]] = None
) -> bool:
    """Single-pair reachability check with early termination, optionally
    ``within`` a vertex set: a path that leaves it is not followed."""
    if source == target:
        return True
    visited = {source}
    stack = [source]
    while stack:
        vertex = stack.pop()
        for succ in graph.successors(vertex):
            if within is not None and succ not in within:
                continue
            if succ == target:
                return True
            if succ not in visited:
                visited.add(succ)
                stack.append(succ)
    return False


def multi_source_reachability(
    graph: DiGraph,
    sources: Iterable[int],
    targets: Iterable[int],
) -> Dict[int, Set[int]]:
    """Compute, for every source, the subset of ``targets`` it reaches.

    This is the reference implementation of ``localSetReachability(.)`` used
    when no index is available: one early-terminating traversal per source.
    A source that is also a target is considered reachable from itself.
    """
    target_set = set(targets)
    result: Dict[int, Set[int]] = {}
    for source in sources:
        if not graph.has_vertex(source):
            result[source] = set()
            continue
        reachable = bfs_reachable_set(graph, source, targets=target_set)
        result[source] = reachable & target_set
    return result


def reachable_pairs(
    graph: DiGraph,
    sources: Iterable[int],
    targets: Iterable[int],
) -> Set[tuple]:
    """Return the set of ``(s, t)`` pairs with ``s ⇝ t`` — ground truth."""
    pairs = set()
    for source, reached in multi_source_reachability(graph, sources, targets).items():
        for target in reached:
            pairs.add((source, target))
    return pairs


def topological_order(graph: DiGraph) -> list:
    """Return a topological order of a DAG (raises ``ValueError`` on cycles)."""
    in_degree = {vertex: graph.in_degree(vertex) for vertex in graph.vertices()}
    queue = deque(vertex for vertex, degree in in_degree.items() if degree == 0)
    order = []
    while queue:
        vertex = queue.popleft()
        order.append(vertex)
        for succ in graph.successors(vertex):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                queue.append(succ)
    if len(order) != graph.num_vertices:
        raise ValueError("graph has at least one cycle; not a DAG")
    return order
