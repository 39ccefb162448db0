"""Tests for the hash and METIS-like partitioners."""

import random

import pytest

from repro.graph import generators
from repro.partition.hash_partitioner import hash_partition
from repro.partition.metis_like import _region_growing, metis_like_partition


class TestHashPartitioner:
    def test_every_vertex_assigned(self):
        graph = generators.random_digraph(100, 250, seed=1)
        part = hash_partition(graph, 4)
        assert sum(len(part.vertices_of(i)) for i in range(4)) == 100

    def test_deterministic_per_seed(self):
        graph = generators.random_digraph(100, 250, seed=1)
        a = hash_partition(graph, 4, seed=3)
        b = hash_partition(graph, 4, seed=3)
        assert a.assignment == b.assignment

    def test_seed_changes_assignment(self):
        graph = generators.random_digraph(200, 500, seed=1)
        a = hash_partition(graph, 4, seed=1)
        b = hash_partition(graph, 4, seed=2)
        assert a.assignment != b.assignment

    def test_roughly_balanced(self):
        graph = generators.random_digraph(400, 800, seed=1)
        part = hash_partition(graph, 4)
        sizes = [len(part.vertices_of(i)) for i in range(4)]
        assert max(sizes) < 2 * min(sizes)


class TestMetisLikePartitioner:
    def test_every_vertex_assigned(self):
        graph = generators.web_graph(300, avg_degree=6, seed=2)
        part = metis_like_partition(graph, 4)
        assert sum(len(part.vertices_of(i)) for i in range(4)) == 300

    def test_balance_constraint(self):
        graph = generators.web_graph(400, avg_degree=6, seed=2)
        part = metis_like_partition(graph, 4, imbalance=1.3)
        sizes = [len(part.vertices_of(i)) for i in range(4)]
        assert max(sizes) <= 1.3 * (400 / 4) + 2

    def test_cut_smaller_than_hash(self):
        """The Table-5 contrast: min-cut partitioning beats random sharding."""
        graph = generators.community_graph(6, 50, intra_prob=0.1, inter_prob=0.002, seed=3)
        hash_cut = hash_partition(graph, 4, seed=1).cut_size()
        metis_cut = metis_like_partition(graph, 4, seed=1).cut_size()
        assert metis_cut < hash_cut

    def test_single_partition(self):
        graph = generators.random_digraph(50, 100, seed=1)
        part = metis_like_partition(graph, 1)
        assert part.cut_size() == 0

    def test_more_partitions_than_vertices(self):
        graph = generators.random_digraph(3, 3, seed=1)
        part = metis_like_partition(graph, 8)
        assert sum(len(part.vertices_of(i)) for i in range(8)) == 3

    def test_deterministic(self):
        graph = generators.web_graph(200, avg_degree=5, seed=4)
        a = metis_like_partition(graph, 3, seed=5)
        b = metis_like_partition(graph, 3, seed=5)
        assert a.assignment == b.assignment

    def test_handles_disconnected_graph(self):
        graph = generators.random_digraph(50, 30, seed=6)  # sparse → disconnected
        part = metis_like_partition(graph, 4)
        assert sum(len(part.vertices_of(i)) for i in range(4)) == 50


def _region_growing_reference(graph, num_partitions):
    """The original region growing, frozen: every frontier vertex's gain is
    recounted from its neighbourhood at every step.  The production version
    keeps the gains incrementally and must grow the very same regions."""

    def neighbors(vertex):
        return set(graph.successors(vertex)) | set(graph.predecessors(vertex))

    vertices = list(graph.vertices())
    by_degree = sorted(
        vertices,
        key=lambda v: graph.out_degree(v) + graph.in_degree(v),
        reverse=True,
    )
    assignment = {}
    sizes = [0] * num_partitions
    frontiers = [set() for _ in range(num_partitions)]

    seeds = []
    for vertex in by_degree:
        if len(seeds) >= num_partitions:
            break
        if any(vertex in neighbors(seed) for seed in seeds):
            continue
        seeds.append(vertex)
    index = 0
    while len(seeds) < num_partitions and index < len(by_degree):
        if by_degree[index] not in seeds:
            seeds.append(by_degree[index])
        index += 1

    for pid, seed_vertex in enumerate(seeds):
        assignment[seed_vertex] = pid
        sizes[pid] += 1
        frontiers[pid].update(
            n for n in neighbors(seed_vertex) if n not in assignment
        )

    unassigned = set(vertices) - set(assignment)
    while unassigned:
        order = sorted(range(num_partitions), key=lambda p: sizes[p])
        grown = False
        for pid in order:
            frontier = frontiers[pid] & unassigned
            if not frontier:
                continue
            best_vertex = None
            best_gain = -1
            for vertex in frontier:
                gain = sum(1 for n in neighbors(vertex) if assignment.get(n) == pid)
                if gain > best_gain:
                    best_gain = gain
                    best_vertex = vertex
            assignment[best_vertex] = pid
            sizes[pid] += 1
            unassigned.discard(best_vertex)
            frontiers[pid].update(
                n for n in neighbors(best_vertex) if n not in assignment
            )
            grown = True
            break
        if not grown:
            vertex = unassigned.pop()
            pid = min(range(num_partitions), key=lambda p: sizes[p])
            assignment[vertex] = pid
            sizes[pid] += 1
            frontiers[pid].update(
                n for n in neighbors(vertex) if n not in assignment
            )
    return assignment


@pytest.mark.parametrize(
    "make_graph, num_partitions",
    [
        # The benchmark spine's graphs ...
        (lambda: generators.dag(2000, 8000, seed=7), 4),
        (lambda: generators.dag(2000, 8000, seed=7), 2),
        (lambda: generators.web_graph(1000, 5.5, seed=7), 4),
        # ... and the graphs of the tests above (incl. a disconnected one).
        (lambda: generators.web_graph(400, avg_degree=6, seed=2), 4),
        (lambda: generators.community_graph(6, 50, 0.1, 0.002, seed=3), 4),
        (lambda: generators.web_graph(200, avg_degree=5, seed=4), 3),
        (lambda: generators.random_digraph(50, 30, seed=6), 4),
    ],
    ids=[
        "spine-dag-4", "spine-dag-2", "spine-web-4",
        "web-400", "community", "web-200", "disconnected",
    ],
)
def test_region_growing_matches_the_frozen_original(make_graph, num_partitions):
    graph = make_graph()
    grown = _region_growing(graph, num_partitions, random.Random(0))
    assert grown == _region_growing_reference(graph, num_partitions)
