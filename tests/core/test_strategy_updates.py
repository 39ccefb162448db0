"""Incremental maintenance under every local reachability strategy.

Each partition's compound graph is indexed with the configured
``local_index`` and re-indexed on every flush, so an update stream must leave
every strategy's engine exact.  The engine gets its own copy of the graph;
the test applies the same updates to a mirror and checks answers against a
plain traversal of the mirror.
"""

import random

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs

STRATEGIES = ["dfs", "msbfs", "ferrari", "grail", "closure"]


@pytest.fixture(params=STRATEGIES)
def strategy(request):
    return request.param


@pytest.fixture
def mirror():
    # Sparse enough that about half of all ordered pairs are unreachable.
    return generators.random_digraph(120, 200, seed=17)


def make_engine(mirror, strategy, **kwargs):
    return open_engine(
        mirror.copy(),
        DSRConfig(
            num_partitions=3, partitioner="hash", seed=4, local_index=strategy, **kwargs
        ),
    )


def sample(mirror, seed, size=12):
    rng = random.Random(seed)
    vertices = sorted(mirror.vertices())
    return rng.sample(vertices, size), rng.sample(vertices, size)


def assert_exact(engine, mirror, seed, directions=("forward",)):
    sources, targets = sample(mirror, seed)
    expected = reachable_pairs(mirror, sources, targets)
    for direction in directions:
        result = engine.run(ReachQuery(sources, targets, direction=direction))
        assert result.pairs == expected, direction


def structural_edges(mirror, count, seed):
    """``count`` absent edges, each of which adds a reachable pair."""
    vertices = sorted(mirror.vertices())
    candidates = [(u, v) for u in vertices for v in vertices if u != v]
    random.Random(seed).shuffle(candidates)
    found = (
        (u, v) for u, v in candidates if not reachable_pairs(mirror, [u], [v])
    )
    return [next(found) for _ in range(count)]


def test_edge_insertions_match_full_rebuild(strategy, mirror):
    engine = make_engine(mirror, strategy)
    for u, v in structural_edges(mirror, 8, seed=1):
        assert engine.insert_edge(u, v).structural_change
        mirror.add_edge(u, v)
    for seed in range(3):
        assert_exact(engine, mirror, seed)


def test_edge_deletions_match_full_rebuild(strategy, mirror):
    engine = make_engine(mirror, strategy)
    edges = sorted(mirror.edges())
    random.Random(2).shuffle(edges)
    for u, v in edges[:20]:
        engine.delete_edge(u, v)
        mirror.remove_edge(u, v)
    for seed in range(3):
        assert_exact(engine, mirror, seed)


def test_backward_index_tracks_the_same_stream(strategy, mirror):
    engine = make_engine(mirror, strategy, enable_backward=True)
    for u, v in structural_edges(mirror, 4, seed=3):
        engine.insert_edge(u, v)
        mirror.add_edge(u, v)
    removed = sorted(mirror.edges())[::15]
    for u, v in removed:
        engine.delete_edge(u, v)
        mirror.remove_edge(u, v)
    for seed in range(3):
        assert_exact(engine, mirror, seed, directions=("forward", "backward"))


def test_inserted_vertex_is_reachable_once_connected(strategy, mirror):
    engine = make_engine(mirror, strategy)
    vertices = sorted(mirror.vertices())
    new_vertex = engine.insert_vertex()
    mirror.add_vertex(new_vertex)
    head, tail = vertices[0], vertices[-1]
    for u, v in ((head, new_vertex), (new_vertex, tail)):
        engine.insert_edge(u, v)
        mirror.add_edge(u, v)
    assert engine.reachable(head, tail)
    sources, targets = vertices[:10] + [new_vertex], vertices[-10:] + [new_vertex]
    assert engine.run(ReachQuery(sources, targets)).pairs == reachable_pairs(
        mirror, sources, targets
    )


def test_deleted_vertex_cuts_paths_through_it(strategy, mirror):
    engine = make_engine(mirror, strategy)
    # The vertex with the most traffic through it: deleting it changes answers.
    hub = max(
        sorted(mirror.vertices()),
        key=lambda x: mirror.in_degree(x) * mirror.out_degree(x),
    )
    engine.delete_vertex(hub)
    mirror.remove_vertex(hub)
    for seed in range(3):
        assert_exact(engine, mirror, seed)


def test_flush_publishes_a_new_epoch_only_for_real_changes(strategy, mirror):
    engine = make_engine(mirror, strategy)
    built = engine.epoch
    assert not engine.flush_updates().published
    assert engine.epoch == built
    ((u, v),) = structural_edges(mirror, 1, seed=5)
    engine.insert_edge(u, v)
    mirror.add_edge(u, v)
    assert engine.has_pending_updates
    flush = engine.flush_updates()
    assert flush.published
    assert engine.epoch == flush.epoch > built
    assert not engine.has_pending_updates
    assert engine.reachable(u, v)
    assert_exact(engine, mirror, seed=6)


def test_delete_then_reinsert_restores_answers(strategy, mirror):
    engine = make_engine(mirror, strategy)
    sources, targets = sample(mirror, seed=7)
    before = engine.run(ReachQuery(sources, targets)).pairs
    assert before == reachable_pairs(mirror, sources, targets)
    edges = sorted(mirror.edges())[::6]
    for u, v in edges:
        engine.delete_edge(u, v)
    engine.flush_updates()
    for u, v in edges:
        engine.insert_edge(u, v)
    assert engine.run(ReachQuery(sources, targets)).pairs == before


def test_background_flush_converges_to_the_mirror(strategy, mirror):
    engine = make_engine(mirror, strategy, epoch_flush="background")
    try:
        built = engine.epoch
        for u, v in structural_edges(mirror, 3, seed=8):
            engine.insert_edge(u, v)
            mirror.add_edge(u, v)
        assert engine.wait_for_maintenance(timeout=60.0)
        assert engine.epoch > built
        for seed in range(3):
            assert_exact(engine, mirror, seed)
    finally:
        engine.close()
