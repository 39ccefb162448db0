"""A flush re-summarises only the partitions whose summary can change.

A partition's summary is a function of its local graph, ``I_i`` and ``O_i``
(Section 3.3.3).  After every flush, every partition's published summary —
rebuilt by that flush or carried over from an earlier epoch — must equal a
fresh :func:`build_partition_summary` of the epoch's local graph and
boundaries, in the forward and in the backward index.  Summaries are
compared with every class named by ``(kind, representative)``, which is
what a class id encodes.

The rules themselves are pinned per update: a cut edge re-summarises a side
only when its endpoint enters or leaves that side's boundary set, a local
delete only when it cuts the local ``u ⇝ v`` path, and either way a new
epoch is published.
"""

import random
import threading

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.core.summary import build_partition_summary
from repro.graph import generators
from repro.graph.traversal import is_reachable, reachable_pairs


def canonical(summary):
    """``summary`` with every class id replaced by ``(kind, representative)``."""
    classes = list(summary.forward_classes) + list(summary.backward_classes)
    names = {cls.class_id: (cls.kind, cls.representative) for cls in classes}

    def name(vertex):
        return names.get(vertex, ("vertex", vertex))

    return (
        summary.in_boundaries,
        summary.out_boundaries,
        frozenset((names[cls.class_id], cls.members) for cls in classes),
        frozenset((name(a), name(b)) for a, b in summary.class_edges),
        frozenset((name(a), name(b)) for a, b in summary.member_edges),
    )


def fresh_summary(index, pid, local_graph):
    return build_partition_summary(
        partition_id=pid,
        local_graph=local_graph,
        in_boundaries=index.partitioning.in_boundaries(pid),
        out_boundaries=index.partitioning.out_boundaries(pid),
        use_equivalence=index.use_equivalence,
    )


def assert_summaries_are_fresh(engine):
    for direction, index in (("forward", engine.index), ("backward", engine._reverse_index)):
        state = index.current_state()
        for pid in range(index.num_partitions):
            local_graph = state.compound_graphs[pid].local_snapshot
            live = index.partitioning.local_subgraph(pid)
            assert sorted(local_graph.edges()) == sorted(live.edges())
            fresh = fresh_summary(index, pid, local_graph)
            assert canonical(state.summaries[pid]) == canonical(fresh), (direction, pid)


def assert_exact(engine, seed):
    rng = random.Random(seed)
    vertices = sorted(engine.graph.vertices())
    sources, targets = rng.sample(vertices, 12), rng.sample(vertices, 12)
    expected = reachable_pairs(engine.graph, sources, targets)
    for direction in ("forward", "backward"):
        query = ReachQuery(sources, targets, direction=direction)
        assert engine.run(query).pairs == expected


def make_engine(graph=None, use_equivalence=True, **kwargs):
    return open_engine(
        graph or generators.web_graph(400, 5.0, seed=3),
        DSRConfig(
            num_partitions=4,
            partitioner="metis",
            use_equivalence=use_equivalence,
            enable_backward=True,
            seed=2,
            **kwargs,
        ),
    )


@pytest.fixture(params=[True, False], ids=["eq", "plain"])
def engine(request):
    engine = make_engine(use_equivalence=request.param)
    yield engine
    engine.close()


def flush(engine):
    """Flush both indexes; the re-summarised partitions of each."""
    forward = engine.flush_updates()
    backward = engine._reverse_maintainer.last_flush
    assert forward.published and forward.epoch == engine.epoch
    assert_summaries_are_fresh(engine)
    return forward.refreshed_partitions, backward.refreshed_partitions


def cut_counts(partitioning):
    outs, ins = {}, {}
    for u, v in partitioning.cut_edges():
        outs[u] = outs.get(u, 0) + 1
        ins[v] = ins.get(v, 0) + 1
    return outs, ins


def local_edges(engine):
    part = engine.partitioning
    return [
        (u, v)
        for u, v in sorted(engine.graph.edges())
        if u != v and part.partition_of(u) == part.partition_of(v)
    ]


def without(graph, u, v):
    copy = graph.copy()
    copy.remove_edge(u, v)
    return copy


def local_graph_without(engine, u, v):
    """The partition of ``u``'s local graph once ``(u, v)`` is deleted."""
    part = engine.partitioning
    return without(part.local_subgraph(part.partition_of(u)), u, v)


def path_survives(engine, u, v):
    """Whether ``u ⇝ v`` survives deleting the local edge ``(u, v)``."""
    return is_reachable(local_graph_without(engine, u, v), u, v)


class TestWhichPartitionsAreResummarised:
    def test_cut_insert_between_existing_boundaries(self, engine):
        part = engine.partitioning
        outs, ins = cut_counts(part)
        u, v = next(
            (u, v)
            for u in sorted(outs)
            for v in sorted(ins)
            if part.partition_of(u) != part.partition_of(v)
            and not engine.graph.has_edge(u, v)
        )
        epoch = engine.epoch
        assert engine.insert_edge(u, v).structural_change
        assert engine.has_pending_updates
        assert flush(engine) == (set(), set())
        assert engine.epoch == epoch + 1
        assert engine.reachable(u, v)
        assert_exact(engine, seed=1)

    def test_cut_delete_between_remaining_boundaries(self, engine):
        outs, ins = cut_counts(engine.partitioning)
        u, v = next(
            (u, v)
            for u, v in engine.partitioning.cut_edges()
            if outs[u] > 1 and ins[v] > 1
        )
        assert engine.delete_edge(u, v).structural_change
        assert flush(engine) == (set(), set())
        assert_exact(engine, seed=2)

    def test_cut_edges_that_create_and_remove_boundaries(self, engine):
        part = engine.partitioning
        outs, ins = cut_counts(part)
        # A new vertex is no boundary: an edge out of it onto an existing
        # in-boundary changes only the new vertex's side ...
        target = min(ins)
        q = part.partition_of(target)
        p = (q + 1) % part.num_partitions
        x = engine.insert_vertex(partition_id=p)
        assert engine.has_pending_updates
        engine.insert_edge(x, target)
        assert flush(engine) == ({p}, {p})
        # ... an edge from an existing out-boundary onto a new vertex only
        # the new vertex's side ...
        source = min(u for u in outs if part.partition_of(u) != p)
        y = engine.insert_vertex(partition_id=p)
        engine.insert_edge(source, y)
        assert flush(engine) == ({p}, {p})
        # ... and a cut edge between two new vertices, both sides.
        z = engine.insert_vertex(partition_id=q)
        w = engine.insert_vertex(partition_id=p)
        engine.insert_edge(z, w)
        assert flush(engine) == ({p, q}, {p, q})
        # Deleting the only cut edge of a boundary removes it again.
        engine.delete_edge(z, w)
        assert flush(engine) == ({p, q}, {p, q})
        engine.delete_edge(x, target)
        assert flush(engine) == ({p}, {p})
        assert_exact(engine, seed=3)

    def test_local_delete_that_keeps_the_path(self, engine):
        u, v = next((u, v) for u, v in local_edges(engine) if path_survives(engine, u, v))
        epoch = engine.epoch
        assert engine.delete_edge(u, v).structural_change
        assert engine.has_pending_updates
        assert flush(engine) == (set(), set())
        assert engine.epoch == epoch + 1
        assert_exact(engine, seed=4)

    def test_local_delete_that_cuts_the_path(self, engine):
        # An edge whose delete cuts ``u ⇝ v`` and changes the summary, so a
        # flush that kept the old one would publish a wrong summary.
        for u, v in local_edges(engine):
            pid = engine.partitioning.partition_of(u)
            local_graph = local_graph_without(engine, u, v)
            if is_reachable(local_graph, u, v):
                continue
            if canonical(fresh_summary(engine.index, pid, local_graph)) != canonical(
                engine.index.summaries[pid]
            ):
                break
        else:
            pytest.fail("no local edge whose delete changes a summary")
        assert engine.delete_edge(u, v).structural_change
        assert flush(engine) == ({pid}, {pid})
        assert_exact(engine, seed=5)

    def test_deleted_then_reinserted_edge_keeps_the_summary(self, engine):
        u, v = next(
            (u, v) for u, v in local_edges(engine) if not path_survives(engine, u, v)
        )
        engine.delete_edge(u, v)
        engine.insert_edge(u, v)  # structural: the partition is dirty again
        pid = engine.partitioning.partition_of(u)
        assert flush(engine) == ({pid}, {pid})
        assert_exact(engine, seed=6)

    def test_vertex_updates_mark_their_partitions(self, engine):
        part = engine.partitioning
        hub = max(
            sorted(engine.graph.vertices()),
            key=lambda x: engine.graph.in_degree(x) * engine.graph.out_degree(x),
        )
        touched = {part.partition_of(hub)} | {
            part.partition_of(w)
            for w in set(engine.graph.successors(hub)) | set(engine.graph.predecessors(hub))
        }
        assert engine.delete_vertex(hub).affected_partitions == touched
        assert flush(engine) == (touched, touched)
        assert_exact(engine, seed=7)


@pytest.mark.parametrize("seed", range(3))
def test_summaries_stay_fresh_over_a_seeded_script(seed):
    """Random inserts and deletes of local and cut edges and of vertices;
    every summary is checked after every flush."""
    engine = make_engine()
    rng = random.Random(seed)
    try:
        for step in range(8):
            vertices = sorted(engine.graph.vertices())
            edges = sorted(engine.graph.edges())
            for u, v in rng.sample(edges, 6):
                engine.delete_edge(u, v)
            for _ in range(6):
                engine.insert_edge(*rng.sample(vertices, 2))
            if step % 3 == 0:
                x = engine.insert_vertex()
                engine.insert_edge(x, rng.choice(vertices))
                engine.insert_edge(rng.choice(vertices), x)
            if step % 4 == 1:
                engine.delete_vertex(rng.choice(vertices))
            flush(engine)
            assert_exact(engine, seed=step)
    finally:
        engine.close()


@pytest.mark.parametrize("epoch_flush", ["inline", "background"])
def test_a_cut_only_update_is_visible_to_the_next_query(epoch_flush):
    """No partition is re-summarised, yet the epoch is stale: the inline
    flush-before-query and the background flush both see it."""
    engine = make_engine(generators.dag(400, 1200, seed=3), epoch_flush=epoch_flush)
    try:
        part = engine.partitioning
        outs, ins = cut_counts(part)
        u, v = next(
            (u, v)
            for u in sorted(outs)
            for v in sorted(ins)
            if part.partition_of(u) != part.partition_of(v)
            and not is_reachable(engine.graph, u, v)
        )
        engine.insert_edge(u, v)
        if epoch_flush == "background":
            assert engine.wait_for_maintenance(timeout=30)
        assert engine.run(ReachQuery([u], [v])).pairs == {(u, v)}
        assert engine.maintainer.last_flush.refreshed_partitions == set()
        assert not engine.has_pending_updates
    finally:
        engine.close()


def test_a_local_delete_during_an_in_flight_flush_is_not_lost():
    """A delete that lands after a background flush's snapshot, before its
    publish, reaches neither that flush's epoch nor the one it replaces.
    The follow-up flush must still see it: the deleted edge may neither
    survive in the published local graph nor keep a summary whose path it
    cut."""
    engine = make_engine(epoch_flush="background")
    entered, hold = threading.Event(), threading.Event()

    def stall(state):
        entered.set()
        assert hold.wait(timeout=10), "test released the flush too late"

    try:
        part = engine.partitioning
        u, v = next(
            (u, v) for u, v in local_edges(engine) if not path_survives(engine, u, v)
        )
        outs, ins = cut_counts(part)
        x, y = next(
            (x, y)
            for x in sorted(outs)
            for y in sorted(ins)
            if part.partition_of(x) != part.partition_of(y)
            and not engine.graph.has_edge(x, y)
        )
        engine.maintainer._before_publish = stall
        engine.insert_edge(x, y)  # schedules the flush the delete races
        assert entered.wait(timeout=10), "background flush never started"
        engine.maintainer._before_publish = None
        engine.delete_edge(u, v)  # lands after that flush's snapshot
        hold.set()
        assert engine.wait_for_maintenance(timeout=30)
        assert engine.maintainer.background_flush_error is None
        assert not engine.has_pending_updates
        assert_summaries_are_fresh(engine)
        for direction in ("forward", "backward"):
            query = ReachQuery([u], [v], direction=direction)
            assert engine.run(query).pairs == reachable_pairs(engine.graph, [u], [v])
        assert_exact(engine, seed=8)
    finally:
        hold.set()
        engine.maintainer._before_publish = None
        engine.close()


def test_a_failed_flush_keeps_the_staleness_and_the_recorded_deletes():
    engine = make_engine()
    try:
        maintainer = engine.maintainer
        u, v = next(
            (u, v) for u, v in local_edges(engine) if not path_survives(engine, u, v)
        )
        engine.delete_edge(u, v)

        def fail(state):
            raise RuntimeError("publish refused")

        maintainer._before_publish = fail
        with pytest.raises(RuntimeError):
            maintainer.flush()
        maintainer._before_publish = None
        assert maintainer.has_pending_changes
        assert maintainer.flush().refreshed_partitions == {engine.partitioning.partition_of(u)}
        engine.flush_updates()
        assert_summaries_are_fresh(engine)
    finally:
        engine.close()
