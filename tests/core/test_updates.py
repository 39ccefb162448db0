"""Tests for incremental index maintenance (Section 3.3.3).

The tests of :class:`TestPublishedLocalSnapshots` run on the executors
``REPRO_TEST_EXECUTORS`` names (``serial`` unless it is set), so CI can run
them with the published epochs hydrated into forked workers.
"""

import os
import random

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.core.compound_graph import assemble_compound_graph
from repro.core.engine import DSREngine
from repro.graph import generators
from repro.graph.digraph import DiGraph, GraphError
from repro.graph.traversal import is_reachable, reachable_pairs
from repro.partition.partition import GraphPartitioning


EXECUTORS = tuple(
    name.strip()
    for name in os.environ.get("REPRO_TEST_EXECUTORS", "serial").split(",")
    if name.strip()
)


def fresh_engine(graph, num_partitions=3, seed=1, **kwargs):
    engine = open_engine(
        graph,
        DSRConfig(num_partitions=num_partitions, partitioner="hash", seed=seed, **kwargs),
    )
    return engine


class TestEdgeInsertion:
    def test_cross_partition_insertion_changes_answers(self, paper_example):
        graph, partitioning, labels = paper_example
        engine = open_engine(graph, DSRConfig(), partitioning=partitioning)
        # k is a sink: it cannot reach a.  Adding k -> d (cut edge) changes that.
        assert not engine.reachable(labels["k"], labels["a"])
        result = engine.insert_edge(labels["k"], labels["d"])
        assert result.structural_change
        assert engine.reachable(labels["k"], labels["a"])

    def test_local_insertion_changes_answers(self, paper_example):
        graph, partitioning, labels = paper_example
        engine = open_engine(graph, DSRConfig(), partitioning=partitioning)
        assert not engine.reachable(labels["v"], labels["q"])
        engine.insert_edge(labels["v"], labels["p"])  # local edge inside G3
        assert engine.reachable(labels["v"], labels["q"])

    def test_same_scc_insertion_is_cheap(self):
        graph = generators.cycle_graph(12)
        engine = fresh_engine(graph, num_partitions=2)
        # All vertices are in one SCC per partition after the compound build?
        # Pick two vertices of the same partition that already reach each other.
        partitioning = engine.partitioning
        partition_zero = sorted(partitioning.vertices_of(0))
        u, v = partition_zero[0], partition_zero[-1]
        result = engine.insert_edge(u, v)
        assert not engine.has_pending_updates or result.structural_change

    def test_same_scc_insertion_survives_a_later_remote_delete(self):
        """u and v are mutually reachable only through partition 1, so the
        local edge u -> v adds a *local* path partition 0 must report: once
        partition 1 loses its own u ⇝ v path, other slaves need that one."""
        from repro.partition.partition import GraphPartitioning

        u, v, p, p2, q, x, y = range(7)
        graph = DiGraph.from_edges(
            [(u, p), (p, p2), (p2, v), (v, q), (q, u), (x, u), (v, y)]
        )
        partitioning = GraphPartitioning(
            graph, {u: 0, v: 0, p: 1, p2: 1, q: 1, x: 1, y: 1}, 2
        )
        engine = open_engine(graph, DSRConfig(num_partitions=2), partitioning=partitioning)
        # Same SCC of the compound graph, but not locally reachable: structural.
        assert engine.insert_edge(u, v).structural_change
        engine.delete_edge(p, p2)  # local to partition 1: only it is refreshed
        assert engine.run(ReachQuery((x,), (y,))).pairs == reachable_pairs(
            graph, [x], [y]
        )

    def test_locally_implied_insertion_stays_non_structural(self):
        # u ⇝ v already holds inside partition 0: the shortcut still applies.
        from repro.partition.partition import GraphPartitioning

        u, w, v, x = range(4)
        graph = DiGraph.from_edges([(u, w), (w, v), (v, u), (x, u)])
        partitioning = GraphPartitioning(graph, {u: 0, w: 0, v: 0, x: 1}, 2)
        engine = open_engine(graph, DSRConfig(num_partitions=2), partitioning=partitioning)
        assert not engine.insert_edge(u, v).structural_change
        assert not engine.has_pending_updates

    def test_duplicate_insertion_is_noop(self):
        graph = generators.random_digraph(40, 120, seed=2)
        engine = fresh_engine(graph)
        u, v = next(iter(graph.edges()))
        result = engine.insert_edge(u, v)
        assert not result.structural_change
        assert result.affected_partitions == set()

    def test_insert_with_unknown_vertex_raises(self):
        graph = generators.random_digraph(30, 80, seed=3)
        engine = fresh_engine(graph)
        with pytest.raises(ValueError):
            engine.insert_edge(0, 10_000)

    @pytest.mark.parametrize("use_equivalence", [True, False])
    def test_batch_insertions_match_full_rebuild(self, use_equivalence):
        full = generators.web_graph(150, avg_degree=5, seed=11)
        edges = sorted(full.edges())
        rng = random.Random(4)
        rng.shuffle(edges)
        held_out = edges[:30]
        base = DiGraph.from_edges(edges[30:], vertices=full.vertices())

        engine = open_engine(
            base,
            DSRConfig(
                num_partitions=3,
                partitioner="hash",
                seed=2,
                local_index="msbfs",
                use_equivalence=use_equivalence,
            ),
        )
        for u, v in held_out:
            engine.insert_edge(u, v)

        vertices = sorted(full.vertices())
        sources = rng.sample(vertices, 10)
        targets = rng.sample(vertices, 10)
        assert engine.run(ReachQuery(sources, targets)).pairs == reachable_pairs(
            full, sources, targets
        )


class TestEdgeDeletion:
    def test_deleting_bridge_disconnects(self):
        graph = generators.path_graph(10)
        engine = fresh_engine(graph, num_partitions=2)
        assert engine.reachable(0, 9)
        engine.delete_edge(4, 5)
        assert not engine.reachable(0, 9)
        assert engine.reachable(0, 4)

    def test_delete_missing_edge_is_noop(self):
        graph = generators.random_digraph(30, 60, seed=5)
        engine = fresh_engine(graph)
        result = engine.delete_edge(0, 0)
        assert not result.structural_change

    def test_batch_deletions_match_full_rebuild(self):
        full = generators.web_graph(140, avg_degree=5, seed=13)
        engine = fresh_engine(full.copy(), num_partitions=3, local_index="msbfs")
        edges = sorted(full.edges())
        rng = random.Random(6)
        rng.shuffle(edges)
        removed = edges[:25]
        for u, v in removed:
            engine.delete_edge(u, v)

        remaining = DiGraph.from_edges(
            [e for e in full.edges() if e not in set(removed)], vertices=full.vertices()
        )
        vertices = sorted(full.vertices())
        sources = rng.sample(vertices, 10)
        targets = rng.sample(vertices, 10)
        assert engine.run(ReachQuery(sources, targets)).pairs == reachable_pairs(
            remaining, sources, targets
        )

    def test_cut_edge_deletion(self, paper_example):
        graph, partitioning, labels = paper_example
        engine = open_engine(graph, DSRConfig(), partitioning=partitioning)
        # o -> f is the only way back into G1; deleting it cuts p off from a.
        assert engine.reachable(labels["p"], labels["a"])
        engine.delete_edge(labels["o"], labels["f"])
        assert not engine.reachable(labels["p"], labels["a"])


class TestVertexUpdates:
    def test_insert_vertex_then_connect(self):
        graph = generators.random_digraph(30, 80, seed=7)
        engine = fresh_engine(graph)
        new_vertex = engine.insert_vertex()
        assert graph.has_vertex(new_vertex)
        engine.insert_edge(new_vertex, sorted(graph.vertices())[0])
        assert engine.reachable(new_vertex, sorted(graph.vertices())[0])

    def test_insert_vertex_explicit_partition(self):
        graph = generators.random_digraph(30, 80, seed=8)
        engine = fresh_engine(graph)
        new_vertex = engine.insert_vertex(partition_id=1)
        assert engine.partitioning.partition_of(new_vertex) == 1

    def test_insert_existing_vertex_rejected(self):
        graph = generators.random_digraph(30, 80, seed=8)
        engine = fresh_engine(graph)
        existing = sorted(graph.vertices())[0]
        original_partition = engine.partitioning.partition_of(existing)
        with pytest.raises(ValueError):
            engine.insert_vertex(existing, partition_id=original_partition + 1)
        # The failed insert must not have reassigned the vertex.
        assert engine.partitioning.partition_of(existing) == original_partition

    def test_delete_vertex_removes_paths_through_it(self):
        graph = generators.path_graph(8)
        engine = fresh_engine(graph, num_partitions=2)
        assert engine.reachable(0, 7)
        engine.delete_vertex(4)
        assert not engine.reachable(0, 7)
        assert not graph.has_vertex(4)


def _class_ids(index):
    """Every virtual class id of ``index``'s published epoch."""
    return {
        cls.class_id
        for summary in index.current_state().summaries.values()
        for cls in (*summary.forward_classes, *summary.backward_classes)
    }


class TestVertexIdsAvoidClassIds:
    """A new real vertex never takes the id of a virtual class vertex.

    A vertex inserted under a class's id would be merged with the class
    vertex in every remote compound graph and reach whatever the class
    reaches.  Class ids are negative and real ids are not, so an auto id
    never meets one and an explicit negative id is refused.
    """

    @pytest.mark.parametrize("enable_backward", [False, True])
    @pytest.mark.parametrize("seed", [0, 3, 4, 5])
    def test_auto_id_vertex_reaches_only_itself(self, seed, enable_backward):
        graph = generators.web_graph(300, 5.5, seed=seed)
        engine = open_engine(
            graph, DSRConfig(num_partitions=4, enable_backward=enable_backward)
        )
        try:
            vertex = engine.insert_vertex()
            assert vertex not in _class_ids(engine.index)
            vertices = sorted(engine.graph.vertices())
            for query in (ReachQuery([vertex], vertices), ReachQuery(vertices, [vertex])):
                assert engine.run(query).pairs == {(vertex, vertex)}
            # Connected, it reaches exactly what the oracle says, after the
            # flush that hands out fresh class ids.
            engine.insert_edge(vertex, vertices[0])
            expected = reachable_pairs(engine.graph, [vertex], vertices)
            assert engine.run(ReachQuery([vertex], vertices)).pairs == expected
        finally:
            engine.close()

    @pytest.mark.parametrize("enable_backward", [False, True])
    def test_explicit_class_id_is_refused(self, enable_backward):
        graph = generators.web_graph(300, 5.5, seed=0)
        engine = open_engine(
            graph, DSRConfig(num_partitions=4, enable_backward=enable_backward)
        )
        try:
            indexes = [engine.index]
            if enable_backward:
                indexes.append(engine._reverse_index)
            for index in indexes:
                class_id = min(_class_ids(index))
                with pytest.raises(GraphError, match="non-negative"):
                    engine.insert_vertex(class_id)
                assert not engine.graph.has_vertex(class_id)
        finally:
            engine.close()

    def test_explicit_id_above_the_classes_is_never_handed_to_one(self):
        graph = generators.web_graph(300, 5.5, seed=0)
        engine = open_engine(
            graph, DSRConfig(num_partitions=4, enable_backward=True)
        )
        try:
            vertex = engine.graph.next_vertex_id + 2
            assert engine.insert_vertex(vertex) == vertex
            # Re-summarise the partitions whose boundaries the new edges
            # change: their class ids stay negative.
            vertices = sorted(graph.vertices())
            for u in vertices[::40]:
                engine.insert_edge(u, vertex)
            engine.flush_updates()
            assert max(_class_ids(engine.index) | _class_ids(engine._reverse_index)) < 0
            assert vertex not in _class_ids(engine.index)
            assert vertex not in _class_ids(engine._reverse_index)
            expected = reachable_pairs(engine.graph, vertices, [vertex])
            assert engine.run(ReachQuery(vertices, [vertex])).pairs == expected
        finally:
            engine.close()


class TestDeferredMaintenance:
    def test_updates_are_batched_until_flush(self):
        graph = generators.random_digraph(50, 140, seed=9)
        engine = fresh_engine(graph)
        vertices = sorted(graph.vertices())
        engine.insert_edge(vertices[0], vertices[-1])
        assert engine.has_pending_updates
        built = engine.epoch
        flush = engine.flush_updates()
        assert not engine.has_pending_updates
        assert flush.published
        assert engine.epoch == flush.epoch == built + 1

    def test_query_auto_flushes(self):
        graph = generators.random_digraph(50, 140, seed=10)
        engine = fresh_engine(graph)
        vertices = sorted(graph.vertices())
        engine.insert_edge(vertices[0], vertices[-1])
        assert engine.has_pending_updates
        engine.run(ReachQuery([vertices[0]], [vertices[-1]]))
        assert not engine.has_pending_updates

    def test_flush_without_changes_is_noop(self):
        graph = generators.random_digraph(30, 60, seed=11)
        engine = fresh_engine(graph)
        flush = engine.flush_updates()
        assert flush.refreshed_partitions == set()

    def test_updates_require_built_index(self):
        graph = generators.random_digraph(20, 40, seed=12)
        engine = DSREngine(graph, DSRConfig(num_partitions=2))
        with pytest.raises(RuntimeError):
            engine.insert_edge(0, 1)


def recomputed_cut(partitioning):
    """The cut and every partition's in/out boundaries, derived from every edge."""
    assignment = partitioning.assignment
    cut = {(u, v) for u, v in partitioning.graph.edges() if assignment[u] != assignment[v]}
    pids = range(partitioning.num_partitions)
    return (
        cut,
        [{v for _, v in cut if assignment[v] == pid} for pid in pids],
        [{u for u, _ in cut if assignment[u] == pid} for pid in pids],
    )


def maintained_cut(partitioning):
    cut = partitioning.cut_edges()
    assert len(cut) == len(set(cut)), "an edge is in the maintained cut twice"
    pids = range(partitioning.num_partitions)
    return (
        set(cut),
        [partitioning.in_boundaries(pid) for pid in pids],
        [partitioning.out_boundaries(pid) for pid in pids],
    )


class TestMaintainedCut:
    """Updates keep the cut and the boundary sets; nothing re-derives them.

    Driven through the engine with the reverse index on, so the mirrored
    updates keep the reverse partitioning's cut too.
    """

    def _partitionings(self, engine):
        return (engine.partitioning, engine._reverse_index.partitioning)

    def _assert_maintained(self, engine):
        for partitioning in self._partitionings(engine):
            assert maintained_cut(partitioning) == recomputed_cut(partitioning)

    def test_every_update_kind_keeps_the_cut(self):
        graph = generators.web_graph(200, 5.5, seed=3)
        engine = fresh_engine(graph, num_partitions=3, enable_backward=True)
        part_of = engine.partitioning.partition_of
        vertices = sorted(graph.vertices())
        rng = random.Random(5)

        def pick(same_partition, edge):
            while True:
                u, v = rng.sample(vertices, 2)
                if (part_of(u) == part_of(v)) == same_partition and graph.has_edge(u, v) == edge:
                    return u, v

        try:
            self._assert_maintained(engine)
            local_edge, cut_edge = pick(True, False), pick(False, False)
            engine.insert_edge(*local_edge)
            self._assert_maintained(engine)
            engine.insert_edge(*cut_edge)
            self._assert_maintained(engine)
            # A duplicate insert of a cut edge must not count it twice: one
            # delete then takes it out of the cut altogether.
            assert not engine.insert_edge(*cut_edge).structural_change
            self._assert_maintained(engine)
            engine.delete_edge(*cut_edge)
            assert cut_edge not in engine.partitioning.cut_edges()
            self._assert_maintained(engine)
            engine.delete_edge(*pick(True, True))
            self._assert_maintained(engine)
            engine.delete_edge(*pick(False, True))
            self._assert_maintained(engine)
            missing = pick(False, False)
            assert not engine.delete_edge(*missing).structural_change
            self._assert_maintained(engine)
            isolated = engine.insert_vertex(partition_id=2)
            self._assert_maintained(engine)
            engine.insert_edge(isolated, vertices[0])
            self._assert_maintained(engine)
            # A vertex with cut edges both ways: all of them leave the cut.
            doomed = next(
                vertex
                for vertex in vertices
                if any(part_of(w) != part_of(vertex) for w in graph.successors(vertex))
                and any(part_of(w) != part_of(vertex) for w in graph.predecessors(vertex))
            )
            engine.delete_vertex(doomed)
            assert not any(doomed in edge for edge in engine.partitioning.cut_edges())
            self._assert_maintained(engine)
            self._assert_epochs_match_a_full_recompute(engine)
        finally:
            engine.close()

    def _assert_epochs_match_a_full_recompute(self, engine):
        """The flushed epochs equal ones built on a from-scratch partitioning."""
        engine.flush_updates()
        for index in (engine.index, engine._reverse_index):
            live = index.partitioning
            fresh = GraphPartitioning(live.graph, live.assignment, live.num_partitions)
            cut, ins, outs = recomputed_cut(live)
            assert set(fresh.cut_edges()) == cut
            state = index.current_state()
            assert state.assignment == fresh.assignment
            for pid in range(fresh.num_partitions):
                local = fresh.local_subgraph(pid)
                snapshot = state.compound_graphs[pid].local_snapshot
                assert set(snapshot.vertices()) == set(local.vertices())
                assert set(snapshot.edges()) == set(local.edges())
                assert state.boundary_sets[pid] == ins[pid] | outs[pid]
                summary = state.summaries[pid]
                assert summary.in_boundaries == ins[pid]
                assert summary.out_boundaries == outs[pid]
                rebuilt = assemble_compound_graph(
                    pid, snapshot, state.summaries, fresh.cut_edges()
                )
                assert rebuilt.graph.to_bytes() == state.compound_graphs[pid].graph.to_bytes()
        vertices = sorted(engine.graph.vertices())
        assert engine.run(ReachQuery(vertices[:20], vertices[-20:])).pairs == reachable_pairs(
            engine.graph, vertices[:20], vertices[-20:]
        )


def assert_snapshot_is_live(engine, pid):
    """Partition ``pid``'s published local snapshot is its live local graph,
    and its compound graph is byte-identical to a fresh assembly."""
    state = engine.index.current_state()
    local = engine.partitioning.local_subgraph(pid)
    snapshot = state.compound_graphs[pid].local_snapshot
    assert set(snapshot.vertices()) == set(local.vertices())
    assert set(snapshot.edges()) == set(local.edges())
    fresh = assemble_compound_graph(
        pid, local, state.summaries, engine.partitioning.cut_edges()
    )
    assert fresh.graph.to_bytes() == state.compound_graphs[pid].graph.to_bytes()


def cut_edge_between_boundaries(engine, avoid):
    """A new cut edge ``(x, y)`` from an out- to an in-boundary, both outside
    the partitions ``avoid``: it makes the epoch stale and dirties nothing."""
    part = engine.partitioning
    outs = {u for u, _ in part.cut_edges()}
    ins = {v for _, v in part.cut_edges()}
    return next(
        (x, y)
        for x in sorted(outs)
        for y in sorted(ins)
        if part.partition_of(x) != part.partition_of(y)
        and not {part.partition_of(x), part.partition_of(y)} & avoid
        and not engine.graph.has_edge(x, y)
    )


def non_structural_insert(engine):
    """``(pid, u, v)``: a local non-edge whose ends share a compound SCC and
    already reach each other inside partition ``pid``."""
    state = engine.index.current_state()
    for pid, compound in sorted(state.compound_graphs.items()):
        local = engine.partitioning.local_subgraph(pid)
        components = compound.reachability.vertex_to_component
        for u in sorted(local.vertices()):
            for v in sorted(local.vertices()):
                if (
                    u != v
                    and not local.has_edge(u, v)
                    and components[u] == components[v]
                    and is_reachable(local, u, v)
                ):
                    return pid, u, v
    raise AssertionError("no non-structural insert in this graph")


@pytest.mark.parametrize("executor", EXECUTORS)
class TestPublishedLocalSnapshots:
    """An epoch's only local graph is ``compound_graphs[i].local_snapshot``.

    No update edits it; a flush re-induces the partitions an update edited
    from the live graph and shares every other snapshot object.
    """

    def _web_engine(self, executor):
        return open_engine(
            generators.web_graph(400, 5.0, seed=3),
            DSRConfig(num_partitions=4, partitioner="metis", seed=2, executor=executor),
        )

    def test_a_non_structural_insert_during_a_flush_reaches_the_next_snapshot(
        self, executor
    ):
        engine = self._web_engine(executor)
        try:
            pid, u, v = non_structural_insert(engine)
            inserted = []

            def insert(state):
                engine.maintainer._before_publish = None
                inserted.append(engine.insert_edge(u, v))

            engine.insert_edge(*cut_edge_between_boundaries(engine, {pid}))
            engine.maintainer._before_publish = insert
            assert engine.flush_updates().published
            assert not inserted[0].structural_change
            assert (u, v) not in set(
                engine.index.compound_graphs[pid].local_snapshot.edges()
            )
            # One more stale update that edits no partition's local graph.
            engine.insert_edge(*cut_edge_between_boundaries(engine, {pid}))
            flushed = engine.flush_updates()
            assert flushed.published and pid not in flushed.refreshed_partitions
            assert (u, v) in set(engine.index.compound_graphs[pid].local_snapshot.edges())
            assert_snapshot_is_live(engine, pid)
        finally:
            engine.maintainer._before_publish = None
            engine.close()

    def test_the_insert_screen_reads_the_live_graph(self, executor):
        """``u -> a -> b -> v -> u`` inside partition 0.  Once ``(a, b)`` is
        deleted and taken into a flush's snapshot, ``u ⇝ v`` no longer holds
        locally, though the epoch that flush replaces still has the path: an
        insert of ``(u, v)`` landing during that flush is structural."""
        u, a, b, v, x, y = range(6)
        graph = DiGraph.from_edges(
            [(u, a), (a, b), (b, v), (v, u), (v, x), (x, y), (y, u)]
        )
        partitioning = GraphPartitioning(graph, {u: 0, a: 0, b: 0, v: 0, x: 1, y: 1}, 2)
        engine = open_engine(
            graph, DSRConfig(num_partitions=2, executor=executor), partitioning=partitioning
        )

        def insert(state):
            engine.maintainer._before_publish = None
            engine.insert_edge(u, v)

        def assert_answers():
            for source, target in ((u, v), (a, b)):
                query = ReachQuery((source,), (target,))
                assert engine.run(query).pairs == reachable_pairs(
                    engine.graph, [source], [target]
                )

        try:
            engine.delete_edge(a, b)
            engine.maintainer._before_publish = insert
            assert engine.flush_updates().published
            assert_answers()
            engine.flush_updates()
            assert_answers()
            assert not engine.has_pending_updates
        finally:
            engine.maintainer._before_publish = None
            engine.close()

    def test_only_edited_partitions_get_a_new_snapshot(self, executor):
        engine = self._web_engine(executor)
        try:
            part = engine.partitioning
            before = {
                pid: compound.local_snapshot
                for pid, compound in engine.index.compound_graphs.items()
            }
            outs = {u for u, _ in part.cut_edges()}
            # ``x`` enters O_p: p is re-summarised, its local graph unchanged.
            x, y = next(
                (x, y)
                for x in sorted(engine.graph.vertices())
                if x not in outs
                for y in sorted(engine.graph.vertices())
                if part.partition_of(y) != part.partition_of(x)
            )
            p = part.partition_of(x)
            # A local edit in another partition.
            q = (p + 1) % part.num_partitions
            edge = next(
                (s, t)
                for s, t in sorted(engine.graph.edges())
                if part.partition_of(s) == part.partition_of(t) == q
            )
            engine.insert_edge(x, y)
            engine.delete_edge(*edge)
            flushed = engine.flush_updates()
            assert p in flushed.refreshed_partitions
            after = engine.index.compound_graphs
            for pid in range(part.num_partitions):
                if pid == q:
                    assert after[pid].local_snapshot is not before[pid]
                    assert edge not in set(after[pid].local_snapshot.edges())
                else:
                    assert after[pid].local_snapshot is before[pid], pid
                assert_snapshot_is_live(engine, pid)
        finally:
            engine.close()
