"""Epoch-versioned maintenance: atomic swaps, background flushes, executors.

The executor matrix honours ``REPRO_TEST_EXECUTORS`` (comma-separated subset
of ``serial,processes,tcp``) so CI can pin the whole module to one
backend.
"""

import os
import random
import threading

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_pairs
from repro.obs import use_registry

EXECUTORS = tuple(
    name.strip()
    for name in os.environ.get(
        "REPRO_TEST_EXECUTORS", "serial,processes,tcp"
    ).split(",")
    if name.strip()
)


def _bridge_graph():
    """A graph whose query answer flips all-or-nothing on one bridge edge.

    ``SOURCE → BRIDGE`` is the bridge; ``BRIDGE`` fans out to every target.
    With the bridge present the answer is every ``(SOURCE, t)`` pair, without
    it the answer is empty — so a torn (half-merged) index state is directly
    observable as a partial answer.
    """
    graph = DiGraph.from_edges(
        [(1, 10), (1, 11), (1, 12), (1, 13), (10, 20), (11, 21), (12, 22), (13, 23)]
    )
    graph.add_vertex(0)
    return graph


BRIDGE_QUERY = ReachQuery((0,), (20, 21, 22, 23))
FULL_ANSWER = {(0, 20), (0, 21), (0, 22), (0, 23)}


class TestEpochLifecycle:
    def test_build_publishes_epoch_zero(self):
        engine = open_engine(generators.social_graph(60, seed=1), DSRConfig(num_partitions=3))
        assert engine.epoch == 0
        assert engine.index.current_state().epoch == 0

    def test_flush_bumps_epoch(self):
        engine = open_engine(_bridge_graph(), DSRConfig(num_partitions=3, partitioner="hash"))
        engine.insert_edge(0, 1)
        flush = engine.flush_updates()
        assert flush.epoch == 1
        assert engine.epoch == 1

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_flush_reports_its_stages(self, executor):
        """The heavy part of a flush is split into named stages — on the
        result, in maintenance_stats() and as one labelled histogram."""
        stages = ("summarise", "assemble", "condense", "hydrate")
        with use_registry() as registry:
            engine = open_engine(
                _bridge_graph(),
                DSRConfig(num_partitions=3, partitioner="hash", executor=executor),
            )
            try:
                engine.insert_edge(0, 1)
                flush = engine.flush_updates()
                stats = engine.maintainer.maintenance_stats()
            finally:
                engine.close()
        seconds = {stage: getattr(flush, f"{stage}_seconds") for stage in stages}
        assert all(value >= 0.0 for value in seconds.values())
        heavy = seconds["summarise"] + seconds["assemble"] + seconds["condense"]
        assert 0.0 < heavy <= flush.heavy_seconds
        for stage in stages:
            assert stats[f"last_flush_{stage}_seconds"] == seconds[stage]
            assert registry.histogram_count("dsr_flush_stage_seconds", stage=stage) == 1
            assert registry.histogram_sum(
                "dsr_flush_stage_seconds", stage=stage
            ) == pytest.approx(seconds[stage])

    def test_noop_flush_keeps_epoch(self):
        engine = open_engine(_bridge_graph(), DSRConfig(num_partitions=3, partitioner="hash"))
        flush = engine.flush_updates()
        assert flush.epoch == 0
        assert engine.epoch == 0

    def test_inline_query_folds_updates_and_reports_epoch(self):
        engine = open_engine(_bridge_graph(), DSRConfig(num_partitions=3, partitioner="hash"))
        assert engine.run(BRIDGE_QUERY).pairs == set()
        engine.insert_edge(0, 1)
        result = engine.run(BRIDGE_QUERY)
        assert result.pairs == FULL_ANSWER
        assert result.epoch == engine.epoch == 1

    def test_query_result_as_dict_carries_epoch_and_real_seconds(self):
        engine = open_engine(_bridge_graph(), DSRConfig(num_partitions=2, partitioner="hash"))
        payload = engine.run(BRIDGE_QUERY).as_dict()
        assert payload["epoch"] == 0
        assert payload["real_seconds"] >= 0.0


@pytest.mark.parametrize("executor", EXECUTORS)
class TestExecutorParity:
    """Every executor must answer every query identically."""

    def test_random_graph_parity(self, executor):
        graph = generators.social_graph(250, avg_degree=5, seed=11)
        reference = open_engine(graph, DSRConfig(num_partitions=4, local_index="msbfs"))
        engine = open_engine(
            graph,
            DSRConfig(num_partitions=4, local_index="msbfs", executor=executor),
        )
        rng = random.Random(5)
        vertices = sorted(graph.vertices())
        try:
            for _ in range(8):
                sources = tuple(rng.sample(vertices, 6))
                targets = tuple(rng.sample(vertices, 6))
                query = ReachQuery(sources, targets)
                assert engine.run(query).pairs == reference.run(query).pairs
        finally:
            engine.close()

    def test_parity_survives_updates_and_flushes(self, executor):
        graph = generators.social_graph(200, avg_degree=4, seed=8)
        reference = open_engine(graph, DSRConfig(num_partitions=3, local_index="msbfs"))
        engine = open_engine(
            graph,
            DSRConfig(num_partitions=3, local_index="msbfs", executor=executor),
        )
        try:
            edges = list(graph.edges())[:4]
            for u, v in edges:
                engine.delete_edge(u, v)
                reference.delete_edge(u, v)
            query = ReachQuery(tuple(range(0, 20)), tuple(range(100, 130)))
            assert engine.run(query).pairs == reference.run(query).pairs
            for u, v in edges:
                engine.insert_edge(u, v)
                reference.insert_edge(u, v)
            assert engine.run(query).pairs == reference.run(query).pairs
        finally:
            engine.close()

    def test_backward_processing_parity(self, executor):
        """The reverse index shares the cluster but never the worker shards;
        forward and backward answers must agree on every executor."""
        graph = generators.social_graph(150, avg_degree=4, seed=6)
        engine = open_engine(
            graph,
            DSRConfig(
                num_partitions=3,
                local_index="msbfs",
                executor=executor,
                enable_backward=True,
            ),
        )
        try:
            sources = tuple(range(0, 30))
            targets = (100, 101)
            forward = engine.run(ReachQuery(sources, targets, direction="forward"))
            backward = engine.run(ReachQuery(sources, targets, direction="backward"))
            assert forward.pairs == backward.pairs
        finally:
            engine.close()

    def test_inserted_vertex_is_queryable(self, executor):
        graph = generators.social_graph(120, avg_degree=4, seed=3)
        engine = open_engine(
            graph,
            DSRConfig(num_partitions=3, local_index="msbfs", executor=executor),
        )
        try:
            vertex = engine.insert_vertex()
            result = engine.run(ReachQuery((vertex,), (vertex,)))
            assert result.pairs == {(vertex, vertex)}
        finally:
            engine.close()


@pytest.mark.parametrize("executor", EXECUTORS)
class TestBackgroundEpochFlush:
    def _engine(self, executor):
        return open_engine(
            _bridge_graph(),
            DSRConfig(
                num_partitions=3,
                partitioner="hash",
                epoch_flush="background",
                executor=executor,
            ),
        )

    def test_query_mid_flush_sees_the_published_epoch(self, executor):
        """While epoch N+1 is built, queries still get epoch N — unblocked."""
        engine = self._engine(executor)
        try:
            assert engine.run(BRIDGE_QUERY).pairs == set()
            entered = threading.Event()
            hold = threading.Event()

            def stall_before_publish(state):
                entered.set()
                assert hold.wait(timeout=10), "test released the flush too late"

            engine.maintainer._before_publish = stall_before_publish
            engine.insert_edge(0, 1)  # structural: schedules a background flush
            assert entered.wait(timeout=10), "background flush never started"

            # The flush is mid-build (epoch 1 exists but is unpublished):
            # queries must neither block nor see any of the new edge.
            result = engine.run(BRIDGE_QUERY)
            assert result.epoch == 0
            assert result.pairs == set()

            hold.set()
            assert engine.wait_for_maintenance(timeout=10)
            after = engine.run(BRIDGE_QUERY)
            assert after.epoch == 1
            assert after.pairs == FULL_ANSWER
        finally:
            engine.maintainer._before_publish = None
            engine.close()

    def test_concurrent_queries_and_updates_never_tear(self, executor):
        """Hammer: every answer is all-or-nothing — epoch N or N+1, never a mix."""
        engine = self._engine(executor)
        errors = []
        stop = threading.Event()

        def querier():
            try:
                while not stop.is_set():
                    result = engine.run(BRIDGE_QUERY)
                    assert result.pairs in (set(), FULL_ANSWER), (
                        f"torn answer at epoch {result.epoch}: {result.pairs}"
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=querier) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(6):
                engine.insert_edge(0, 1)
                engine.wait_for_maintenance(timeout=10)
                engine.delete_edge(0, 1)
                engine.wait_for_maintenance(timeout=10)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors, errors[0]
        assert engine.maintainer.background_flush_error is None
        engine.close()

    def test_vertex_inserted_during_flush_survives_the_swap(self, executor):
        """An isolated-vertex insert racing an in-flight flush must not be
        lost when that flush publishes its (pre-insert) snapshot."""
        engine = self._engine(executor)
        try:
            entered = threading.Event()
            hold = threading.Event()

            def stall(state):
                entered.set()
                assert hold.wait(timeout=10)

            engine.maintainer._before_publish = stall
            engine.insert_edge(0, 1)  # schedules the flush we race against
            assert entered.wait(timeout=10)
            vertex = engine.insert_vertex()  # lands mid-flush
            hold.set()
            engine.maintainer._before_publish = None
            assert engine.wait_for_maintenance(timeout=10)
            result = engine.run(ReachQuery((vertex,), (vertex,)))
            assert result.pairs == {(vertex, vertex)}
        finally:
            engine.maintainer._before_publish = None
            engine.close()

    def test_vertex_insert_alone_schedules_the_flush_that_publishes_it(self, executor):
        """An isolated-vertex insert is an ordinary pending update: on its
        own it schedules a background flush, and until that flush publishes,
        queries answer from the old epoch, which does not know the vertex."""
        engine = self._engine(executor)
        hold = threading.Event()
        try:
            published = engine.graph.copy()
            epoch = engine.epoch
            entered = threading.Event()

            def stall(state):
                entered.set()
                assert hold.wait(timeout=10)

            engine.maintainer._before_publish = stall
            vertex = engine.insert_vertex()
            assert entered.wait(timeout=10), "the insert scheduled no flush"
            result = engine.run(ReachQuery((1, vertex), (20, 21, vertex)))
            assert result.epoch == epoch
            assert result.pairs == reachable_pairs(published, (1,), (20, 21))
            assert not any(vertex in pair for pair in result.pairs)
            hold.set()
            engine.maintainer._before_publish = None
            assert engine.wait_for_maintenance(timeout=10)
            result = engine.run(ReachQuery((vertex,), (vertex,)))
            assert result.epoch > epoch
            assert result.pairs == {(vertex, vertex)}
        finally:
            hold.set()
            engine.maintainer._before_publish = None
            engine.close()

    def test_vertex_insert_does_not_tear_the_published_epoch(self, executor):
        """An edge deletion pending its flush, then an isolated-vertex insert
        on the same partition, must not change epoch 0's answers: the insert
        rebuilds the partition's compound graph from epoch 0's own snapshot,
        which the deletion never edited."""
        graph = generators.dag(60, 150, seed=3)
        engine = open_engine(
            graph,
            DSRConfig(
                num_partitions=2,
                partitioner="metis",
                epoch_flush="background",
                executor=executor,
            ),
        )
        query = ReachQuery((0,), (5,))
        try:
            pid = engine.partitioning.partition_of(0)
            assert engine.partitioning.partition_of(5) == pid
            assert engine.run(query).pairs == {(0, 5)}
            entered = threading.Event()
            hold = threading.Event()

            def stall(state):
                entered.set()
                assert hold.wait(timeout=10)

            engine.maintainer._before_publish = stall
            engine.delete_edge(0, 5)  # epoch 1 is built but held unpublished
            assert entered.wait(timeout=10)
            engine.insert_vertex(1000, partition_id=pid)
            result = engine.run(query)
            assert result.epoch == 0
            assert result.pairs == {(0, 5)}
            hold.set()
            engine.maintainer._before_publish = None
            assert engine.wait_for_maintenance(timeout=10)
            result = engine.run(query)
            assert result.epoch > 0
            assert result.pairs == set()
        finally:
            hold.set()
            engine.maintainer._before_publish = None
            engine.close()

    def test_split_survives_vertex_deleted_after_capture(self, executor):
        """A vertex deletion racing a lock-free query (after the query
        captured its epoch, before it split) must not crash the split: the
        query answers from its captured epoch, where the vertex exists."""
        from repro.cluster.cluster import ClusterStats
        from repro.cluster.network import Network

        engine = self._engine(executor)
        try:
            engine.insert_edge(0, 1)
            assert engine.wait_for_maintenance(timeout=10)
            state = engine.index.current_state()
            engine.delete_vertex(1)  # racing deletion on the live graph
            # Simulate the query that already captured `state`:
            pairs = engine._executor._execute(
                state, {0}, {20, 21, 22, 23}, Network(), ClusterStats(),
                sharded=False,
            )
            assert pairs == FULL_ANSWER  # epoch-N answer, vertex still routed
            assert engine.wait_for_maintenance(timeout=10)
        finally:
            engine.close()

    def test_epoch_advances_once_per_coalesced_batch(self, executor):
        engine = self._engine(executor)
        try:
            engine.insert_edge(0, 1)
            engine.delete_edge(1, 10)
            assert engine.wait_for_maintenance(timeout=10)
            # Both updates fold into at most two epochs (coalescing), and the
            # final answer reflects every applied update.
            assert engine.epoch >= 1
            result = engine.run(BRIDGE_QUERY)
            assert result.pairs == FULL_ANSWER - {(0, 20)}
        finally:
            engine.close()
