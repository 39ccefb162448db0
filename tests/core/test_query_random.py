"""DSR query evaluation vs ground truth on randomly generated settings."""

import random

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs


def ground_truth(graph, sources, targets):
    return reachable_pairs(graph, sources, targets)


GENERATORS = {
    "random": lambda seed: generators.random_digraph(70, 200, seed=seed),
    "social": lambda seed: generators.social_graph(90, avg_degree=5, seed=seed),
    "web": lambda seed: generators.web_graph(90, avg_degree=5, seed=seed),
    "hierarchy": lambda seed: generators.hierarchy_graph(100, seed=seed),
    "dag": lambda seed: generators.dag(80, 200, seed=seed),
}


@pytest.mark.parametrize("graph_kind", sorted(GENERATORS))
@pytest.mark.parametrize("use_equivalence", [True, False], ids=["eq", "noeq"])
def test_dsr_matches_ground_truth(graph_kind, use_equivalence):
    graph = GENERATORS[graph_kind](seed=17)
    engine = open_engine(
        graph,
        DSRConfig(
            num_partitions=4,
            partitioner="hash",
            local_index="msbfs",
            use_equivalence=use_equivalence,
            seed=3,
        ),
    )
    rng = random.Random(5)
    vertices = sorted(graph.vertices())
    for _ in range(3):
        sources = rng.sample(vertices, 8)
        targets = rng.sample(vertices, 8)
        assert engine.run(ReachQuery(sources, targets)).pairs == ground_truth(graph, sources, targets)


@pytest.mark.parametrize("num_partitions", [1, 2, 3, 5, 8])
def test_partition_count_does_not_change_answers(num_partitions):
    graph = generators.web_graph(120, avg_degree=6, seed=23)
    engine = open_engine(
        graph,
        DSRConfig(num_partitions=num_partitions, partitioner="metis", local_index="msbfs", seed=1),
    )
    rng = random.Random(9)
    vertices = sorted(graph.vertices())
    sources = rng.sample(vertices, 10)
    targets = rng.sample(vertices, 10)
    assert engine.run(ReachQuery(sources, targets)).pairs == ground_truth(graph, sources, targets)


@pytest.mark.parametrize("local_index", ["dfs", "msbfs", "ferrari", "grail", "closure"])
def test_local_strategy_does_not_change_answers(local_index):
    graph = generators.social_graph(100, avg_degree=6, reciprocity=0.4, seed=31)
    engine = open_engine(graph, DSRConfig(num_partitions=4, local_index=local_index, seed=2))
    rng = random.Random(13)
    vertices = sorted(graph.vertices())
    sources = rng.sample(vertices, 8)
    targets = rng.sample(vertices, 8)
    assert engine.run(ReachQuery(sources, targets)).pairs == ground_truth(graph, sources, targets)


@pytest.mark.parametrize("partitioner", ["hash", "metis"])
def test_partitioner_does_not_change_answers(partitioner):
    graph = generators.copurchase_graph(110, avg_degree=5, seed=41)
    engine = open_engine(
        graph,
        DSRConfig(num_partitions=4, partitioner=partitioner, local_index="msbfs", seed=4),
    )
    rng = random.Random(7)
    vertices = sorted(graph.vertices())
    sources = rng.sample(vertices, 9)
    targets = rng.sample(vertices, 9)
    assert engine.run(ReachQuery(sources, targets)).pairs == ground_truth(graph, sources, targets)


def test_sources_equal_targets():
    graph = generators.random_digraph(60, 160, seed=51)
    engine = open_engine(graph, DSRConfig(num_partitions=3, local_index="msbfs", seed=5))
    vertices = sorted(graph.vertices())[:10]
    assert engine.run(ReachQuery(vertices, vertices)).pairs == ground_truth(graph, vertices, vertices)


def test_all_vertices_query_small_graph():
    graph = generators.random_digraph(25, 70, seed=61)
    engine = open_engine(graph, DSRConfig(num_partitions=3, partitioner="hash", seed=6))
    vertices = sorted(graph.vertices())
    assert engine.run(ReachQuery(vertices, vertices)).pairs == ground_truth(graph, vertices, vertices)


def test_disconnected_graph():
    graph = generators.random_digraph(80, 40, seed=71)  # sparse, disconnected
    engine = open_engine(graph, DSRConfig(num_partitions=4, partitioner="hash", seed=7))
    rng = random.Random(3)
    vertices = sorted(graph.vertices())
    sources = rng.sample(vertices, 10)
    targets = rng.sample(vertices, 10)
    assert engine.run(ReachQuery(sources, targets)).pairs == ground_truth(graph, sources, targets)


def test_single_vertex_graph():
    from repro.graph.digraph import DiGraph

    graph = DiGraph()
    graph.add_vertex(0)
    engine = open_engine(graph, DSRConfig(num_partitions=1, seed=1))
    assert engine.run(ReachQuery([0], [0])).pairs == {(0, 0)}
