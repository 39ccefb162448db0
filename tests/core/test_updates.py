"""Tests for incremental index maintenance (Section 3.3.3)."""

import random

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.core.compound_graph import assemble_compound_graph
from repro.core.engine import DSREngine
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_pairs
from repro.partition.partition import GraphPartitioning


def fresh_engine(graph, num_partitions=3, seed=1, **kwargs):
    engine = open_engine(
        graph,
        DSRConfig(num_partitions=num_partitions, partitioner="hash", seed=seed, **kwargs),
    )
    return engine


class TestEdgeInsertion:
    def test_cross_partition_insertion_changes_answers(self, paper_example):
        graph, partitioning, labels = paper_example
        engine = open_engine(graph, DSRConfig(local_index="dfs"), partitioning=partitioning)
        # k is a sink: it cannot reach a.  Adding k -> d (cut edge) changes that.
        assert not engine.reachable(labels["k"], labels["a"])
        result = engine.insert_edge(labels["k"], labels["d"])
        assert result.structural_change
        assert engine.reachable(labels["k"], labels["a"])

    def test_local_insertion_changes_answers(self, paper_example):
        graph, partitioning, labels = paper_example
        engine = open_engine(graph, DSRConfig(local_index="dfs"), partitioning=partitioning)
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
        engine = open_engine(graph, DSRConfig(local_index="dfs"), partitioning=partitioning)
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

    Class ids count up from ``max(V) + 1``, which is also the id a graph
    hands out next; a vertex inserted under a class's id is merged with the
    class vertex in every remote compound graph and reaches whatever the
    class reaches.
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
                with pytest.raises(ValueError, match="class id"):
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
            allocator = engine.index.allocator
            vertex = allocator.next_id + 2  # a future class id
            assert engine.insert_vertex(vertex) == vertex
            # Re-summarise the partitions whose boundaries the new edges
            # change: the allocator hands out fresh ids past ``vertex`` and
            # skips it.
            vertices = sorted(graph.vertices())
            for u in vertices[::40]:
                engine.insert_edge(u, vertex)
            engine.flush_updates()
            assert allocator.next_id > vertex
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
                assert set(state.local_graphs[pid].vertices()) == set(local.vertices())
                assert set(state.local_graphs[pid].edges()) == set(local.edges())
                assert state.boundary_sets[pid] == ins[pid] | outs[pid]
                summary = state.summaries[pid]
                assert summary.in_boundaries == ins[pid]
                assert summary.out_boundaries == outs[pid]
                rebuilt = assemble_compound_graph(
                    pid, state.local_graphs[pid], state.summaries, fresh.cut_edges()
                )
                assert rebuilt.graph.to_bytes() == state.compound_graphs[pid].graph.to_bytes()
        vertices = sorted(engine.graph.vertices())
        assert engine.run(ReachQuery(vertices[:20], vertices[-20:])).pairs == reachable_pairs(
            engine.graph, vertices[:20], vertices[-20:]
        )
