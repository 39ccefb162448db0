"""Every local strategy agrees with the kernel on every published condensation.

The DSR engine runs one kernel, the bitset one-pass sweep over each
condensed compound graph (:func:`repro.core.packed_steps.condensation_rows`).
The ``repro.reachability`` strategies the paper plugs in instead (its
Fig. 7) must still answer the same over the condensations an engine
publishes, including after incremental maintenance.  So each test runs once
per strategy: one engine takes an update stream, and after every flush

* the strategy's ``set_reachability`` over every published condensation —
  forward and, where built, reverse — equals the kernel's rows, and
* the engine's answers equal :func:`reachable_pairs` on a mirror graph that
  takes the same updates.

The engine runs on the executors ``REPRO_TEST_EXECUTORS`` names (``serial``
unless it is set), so CI can run the module against forked workers.
"""

import os
import random

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.reachability import bitset_msbfs, make_reachability_index
from repro.reachability.packed import VertexRank

STRATEGIES = ["dfs", "msbfs", "ferrari", "grail", "closure"]

EXECUTORS = tuple(
    name.strip()
    for name in os.environ.get("REPRO_TEST_EXECUTORS", "serial").split(",")
    if name.strip()
)


@pytest.fixture
def mirror():
    # Sparse enough that about half of all ordered pairs are unreachable.
    return generators.random_digraph(120, 200, seed=17)


@pytest.fixture(params=EXECUTORS)
def make_engine(request, mirror):
    engines = []

    def make(**kwargs):
        engine = open_engine(
            mirror.copy(),
            DSRConfig(
                num_partitions=3,
                partitioner="hash",
                seed=4,
                executor=request.param,
                **kwargs,
            ),
        )
        engines.append(engine)
        return engine

    yield make
    for engine in engines:
        engine.close()


def published_condensations(engine):
    indexes = [engine.index]
    if engine._reverse_index is not None:
        indexes.append(engine._reverse_index)
    for index in indexes:
        for compound in index.compound_graphs.values():
            yield compound.condensation_view().dag


@pytest.fixture(params=STRATEGIES)
def strategy(request):
    return request.param


def assert_strategy_agrees(engine, strategy):
    """``strategy`` over every published condensation equals the kernel."""
    for dag in published_condensations(engine):
        rank = VertexRank.from_csr(dag)
        components = list(rank.ids)
        rows = bitset_msbfs.set_reachability_rows(dag, components, None)
        sets = make_reachability_index(strategy, dag).set_reachability(components, components)
        assert {c: rank.pack(reached) for c, reached in sets.items()} == rows, strategy


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


def flush_and_check(engine, mirror, strategy, directions=("forward",)):
    engine.flush_updates()
    assert_strategy_agrees(engine, strategy)
    for seed in range(3):
        assert_exact(engine, mirror, seed, directions)


def structural_edges(mirror, count, seed):
    """``count`` absent edges, each of which adds a reachable pair."""
    vertices = sorted(mirror.vertices())
    candidates = [(u, v) for u in vertices for v in vertices if u != v]
    random.Random(seed).shuffle(candidates)
    found = (
        (u, v) for u, v in candidates if not reachable_pairs(mirror, [u], [v])
    )
    return [next(found) for _ in range(count)]


def test_built_index_agrees(make_engine, mirror, strategy):
    engine = make_engine(enable_backward=True)
    flush_and_check(engine, mirror, strategy, directions=("forward", "backward"))


def test_edge_insertions_match_full_rebuild(make_engine, mirror, strategy):
    engine = make_engine()
    for u, v in structural_edges(mirror, 8, seed=1):
        assert engine.insert_edge(u, v).structural_change
        mirror.add_edge(u, v)
    flush_and_check(engine, mirror, strategy)


def test_edge_deletions_match_full_rebuild(make_engine, mirror, strategy):
    engine = make_engine()
    edges = sorted(mirror.edges())
    random.Random(2).shuffle(edges)
    for batch in (edges[:10], edges[10:20]):
        for u, v in batch:
            engine.delete_edge(u, v)
            mirror.remove_edge(u, v)
        flush_and_check(engine, mirror, strategy)


def test_backward_index_tracks_the_same_stream(make_engine, mirror, strategy):
    engine = make_engine(enable_backward=True)
    for u, v in structural_edges(mirror, 4, seed=3):
        engine.insert_edge(u, v)
        mirror.add_edge(u, v)
    flush_and_check(engine, mirror, strategy, directions=("forward", "backward"))
    for u, v in sorted(mirror.edges())[::15]:
        engine.delete_edge(u, v)
        mirror.remove_edge(u, v)
    flush_and_check(engine, mirror, strategy, directions=("forward", "backward"))


def test_inserted_vertex_is_reachable_once_connected(make_engine, mirror, strategy):
    engine = make_engine()
    vertices = sorted(mirror.vertices())
    new_vertex = engine.insert_vertex()
    mirror.add_vertex(new_vertex)
    head, tail = vertices[0], vertices[-1]
    for u, v in ((head, new_vertex), (new_vertex, tail)):
        engine.insert_edge(u, v)
        mirror.add_edge(u, v)
    flush_and_check(engine, mirror, strategy)
    assert engine.reachable(head, tail)
    sources, targets = vertices[:10] + [new_vertex], vertices[-10:] + [new_vertex]
    assert engine.run(ReachQuery(sources, targets)).pairs == reachable_pairs(
        mirror, sources, targets
    )


def test_deleted_vertex_cuts_paths_through_it(make_engine, mirror, strategy):
    engine = make_engine()
    # The vertex with the most traffic through it: deleting it changes answers.
    hub = max(
        sorted(mirror.vertices()),
        key=lambda x: mirror.in_degree(x) * mirror.out_degree(x),
    )
    engine.delete_vertex(hub)
    mirror.remove_vertex(hub)
    flush_and_check(engine, mirror, strategy)


def test_flush_publishes_a_new_epoch_only_for_real_changes(make_engine, mirror, strategy):
    engine = make_engine()
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
    flush_and_check(engine, mirror, strategy)


def test_delete_then_reinsert_restores_answers(make_engine, mirror, strategy):
    engine = make_engine()
    sources, targets = sample(mirror, seed=7)
    before = engine.run(ReachQuery(sources, targets)).pairs
    assert before == reachable_pairs(mirror, sources, targets)
    edges = sorted(mirror.edges())[::6]
    for u, v in edges:
        engine.delete_edge(u, v)
        mirror.remove_edge(u, v)
    flush_and_check(engine, mirror, strategy)
    for u, v in edges:
        engine.insert_edge(u, v)
        mirror.add_edge(u, v)
    flush_and_check(engine, mirror, strategy)
    assert engine.run(ReachQuery(sources, targets)).pairs == before


def test_background_flush_converges_to_the_mirror(make_engine, mirror, strategy):
    engine = make_engine(epoch_flush="background")
    built = engine.epoch
    for u, v in structural_edges(mirror, 3, seed=8):
        engine.insert_edge(u, v)
        mirror.add_edge(u, v)
    assert engine.wait_for_maintenance(timeout=60.0)
    assert engine.epoch > built
    assert_strategy_agrees(engine, strategy)
    for seed in range(3):
        assert_exact(engine, mirror, seed)
