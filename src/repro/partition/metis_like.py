"""A METIS-like balanced min-cut partitioner.

The paper uses METIS [17] to minimise the number of cut edges while keeping
partitions balanced, because the DSR index size and query cost are driven by
the boundary sets implied by the cut.  METIS itself is not available offline,
so this module implements the same *role* with a classical two-phase heuristic:

1. **Region growing** — seed each partition with a high-degree vertex and grow
   partitions by repeatedly absorbing the frontier vertex with the highest
   connectivity to the partition (breaking ties towards balance).  This yields
   locality-preserving partitions similar to METIS' coarsening phase.
2. **Boundary refinement** — a Kernighan–Lin/Fiduccia–Mattheyses-style pass
   that moves boundary vertices between partitions whenever the move reduces
   the number of cut edges without violating the balance constraint.

The partitioner is deterministic for a fixed ``seed``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set

from repro.graph.digraph import DiGraph
from repro.partition.partition import GraphPartitioning


def _undirected_neighbors(graph: DiGraph, vertex: int) -> Set[int]:
    return set(graph.successors(vertex)) | set(graph.predecessors(vertex))


def _region_growing(
    graph: DiGraph, num_partitions: int, rng: random.Random
) -> Dict[int, int]:
    """Grow ``num_partitions`` regions from high-degree seeds."""
    vertices = list(graph.vertices())
    if not vertices:
        return {}

    neighbors = {vertex: _undirected_neighbors(graph, vertex) for vertex in vertices}
    by_degree = sorted(
        vertices,
        key=lambda v: graph.out_degree(v) + graph.in_degree(v),
        reverse=True,
    )
    assignment: Dict[int, int] = {}
    sizes = [0] * num_partitions
    frontiers: List[Set[int]] = [set() for _ in range(num_partitions)]
    # gains[pid][v]: how many neighbours of v partition pid has absorbed so
    # far — maintained on absorption so picking the best frontier vertex is
    # one dict lookup per candidate instead of a neighbourhood scan.
    gains: List[Dict[int, int]] = [{} for _ in range(num_partitions)]

    def absorb(vertex: int, pid: int) -> None:
        assignment[vertex] = pid
        sizes[pid] += 1
        gain, frontier = gains[pid], frontiers[pid]
        for neighbor in neighbors[vertex]:
            gain[neighbor] = gain.get(neighbor, 0) + 1
            if neighbor not in assignment:
                frontier.add(neighbor)

    seeds: List[int] = []
    for vertex in by_degree:
        if len(seeds) >= num_partitions:
            break
        # Avoid seeding two partitions right next to each other when possible.
        if any(vertex in neighbors[seed] for seed in seeds):
            continue
        seeds.append(vertex)
    index = 0
    while len(seeds) < num_partitions and index < len(by_degree):
        if by_degree[index] not in seeds:
            seeds.append(by_degree[index])
        index += 1

    for pid, seed_vertex in enumerate(seeds):
        absorb(seed_vertex, pid)

    unassigned = set(vertices) - set(assignment)
    while unassigned:
        # Pick the smallest partition that still has capacity and a frontier.
        order = sorted(range(num_partitions), key=lambda p: sizes[p])
        grown = False
        for pid in order:
            frontier = frontiers[pid] & unassigned
            if not frontier:
                continue
            # Absorb the frontier vertex with the most neighbours already in pid.
            gain = gains[pid]
            best_vertex = None
            best_gain = -1
            for vertex in frontier:
                vertex_gain = gain[vertex]
                if vertex_gain > best_gain:
                    best_gain = vertex_gain
                    best_vertex = vertex
            unassigned.discard(best_vertex)
            absorb(best_vertex, pid)
            grown = True
            break
        if not grown:
            # Disconnected remainder: hand the next vertex to the smallest
            # partition to preserve balance.
            vertex = unassigned.pop()
            absorb(vertex, min(range(num_partitions), key=lambda p: sizes[p]))
    return assignment


def _refine(
    graph: DiGraph,
    assignment: Dict[int, int],
    num_partitions: int,
    max_passes: int,
    imbalance: float,
) -> Dict[int, int]:
    """Greedy KL/FM-style boundary refinement."""
    sizes = [0] * num_partitions
    for pid in assignment.values():
        sizes[pid] += 1
    max_size = int(imbalance * (len(assignment) / num_partitions)) + 1

    for _ in range(max_passes):
        moved = 0
        for vertex in list(graph.vertices()):
            current = assignment[vertex]
            # Count directed edges crossing per candidate partition.
            neighbour_counts: Dict[int, int] = {}
            for neighbour in graph.successors(vertex):
                pid = assignment[neighbour]
                neighbour_counts[pid] = neighbour_counts.get(pid, 0) + 1
            for neighbour in graph.predecessors(vertex):
                pid = assignment[neighbour]
                neighbour_counts[pid] = neighbour_counts.get(pid, 0) + 1
            if not neighbour_counts:
                continue
            current_internal = neighbour_counts.get(current, 0)
            best_pid, best_internal = current, current_internal
            for pid, count in neighbour_counts.items():
                if pid == current:
                    continue
                if count > best_internal and sizes[pid] + 1 <= max_size:
                    best_pid, best_internal = pid, count
            if best_pid != current and sizes[current] > 1:
                assignment[vertex] = best_pid
                sizes[current] -= 1
                sizes[best_pid] += 1
                moved += 1
        if moved == 0:
            break
    return assignment


def metis_like_partition(
    graph: DiGraph,
    num_partitions: int,
    seed: int = 0,
    refinement_passes: int = 4,
    imbalance: float = 1.2,
) -> GraphPartitioning:
    """Balanced min-cut partitioning (region growing + KL refinement)."""
    rng = random.Random(seed)
    if num_partitions <= 1 or graph.num_vertices <= num_partitions:
        assignment = {}
        for index, vertex in enumerate(sorted(graph.vertices())):
            assignment[vertex] = index % max(1, num_partitions)
        return GraphPartitioning(graph, assignment, num_partitions=num_partitions)

    assignment = _region_growing(graph, num_partitions, rng)
    assignment = _refine(graph, assignment, num_partitions, refinement_passes, imbalance)
    return GraphPartitioning(graph, assignment, num_partitions=num_partitions)
