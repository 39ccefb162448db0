"""Deterministic chaos matrix over the serving stack.

The acceptance bar this file pins: under a seeded fault schedule, every
in-flight query either returns the **correct answer** or a **typed error**
(``DeadlineExceededError`` / ``WorkerTransportError``) within its budget —
no hangs, no wrong answers.  Faults are injected with counted failpoint
windows, never probabilities, so every run exercises the same schedule.
"""

import os
import signal
import time

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.executors import (
    ShardTaskError,
    register_shard_loader,
    register_shard_task,
)
from repro.cluster.remote import TcpExecutor, WorkerTransportError
from repro.core.engine import DSREngine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.resilience import FailPointSpec, use_failpoints
from repro.service.protocol import QueryResponse, UpdateRequest, UpdateResponse
from repro.service.server import DSRService, ErrorResponse

TYPED_ERRORS = {"DeadlineExceededError", "WorkerTransportError"}


@register_shard_loader("chaostest.load")
def _load(blob):
    return dict(blob)


@register_shard_task("chaostest.noop")
def _noop(shard, payload):
    return shard["v"]


@pytest.fixture(scope="module")
def graph():
    return generators.social_graph(140, avg_degree=4, seed=7)


@pytest.fixture(scope="module")
def tcp_engine(graph):
    engine = DSREngine.from_config(
        graph.copy(),
        DSRConfig(num_partitions=2, local_index="msbfs", seed=2, executor="tcp"),
    )
    engine.build_index()
    yield engine
    engine.close()


def _expected(graph, query):
    return set(reachable_pairs(graph, query.sources, query.targets))


class TestWorkerKillThroughService:
    def test_killed_host_is_transparent_to_the_caller(self, graph, tcp_engine):
        service = DSRService(tcp_engine, num_workers=1)
        try:
            verts = sorted(graph.vertices())
            query = ReachQuery(tuple(verts[:5]), tuple(verts[-5:]))
            executor = tcp_engine.cluster.executor
            victim = executor._managed[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            response = service.handle(query)
            assert isinstance(response, QueryResponse)
            assert set(response.pairs) == _expected(graph, query)
            assert executor._managed[0].pid != victim.pid
        finally:
            service.close()


class TestSlowRpcAgainstDeadline:
    def test_injected_stall_burns_the_budget_into_a_typed_error(
        self, graph, tcp_engine
    ):
        service = DSRService(tcp_engine, num_workers=1)
        try:
            verts = sorted(graph.vertices())
            query = ReachQuery(
                tuple(verts[:5]), tuple(verts[-5:]), deadline_ms=100
            )
            started = time.monotonic()
            with use_failpoints(
                [FailPointSpec("executor.call", action="delay", value=0.3)]
            ) as registry:
                response = service.handle(query)
                assert registry.fired("executor.call") >= 1
            elapsed = time.monotonic() - started
            assert isinstance(response, ErrorResponse)
            assert response.error == "DeadlineExceededError"
            assert elapsed < 2.0  # budget + injected stalls, never a hang
            # With the stall gone the same query answers correctly.
            clean = service.handle(
                ReachQuery(tuple(verts[:5]), tuple(verts[-5:]), deadline_ms=5000)
            )
            assert isinstance(clean, QueryResponse)
            assert set(clean.pairs) == _expected(graph, query)
        finally:
            service.close()


class TestTransportExhaustion:
    def test_reconnect_exhaustion_is_typed_and_recoverable(self):
        executor = TcpExecutor(
            reconnect_attempts=2,
            reconnect_backoff_seconds=0.01,
            reconnect_backoff_cap_seconds=0.02,
        )
        cluster = SimulatedCluster(1, executor=executor)
        try:
            cluster.hydrate_shards(0, {0: {"v": 1}}, "chaostest.load")
            specs = [
                # One dropped call forces a reconnect; the replay fault then
                # poisons every reconnect attempt until the budget is spent.
                FailPointSpec("executor.call", value="ConnectionError", count=1),
                FailPointSpec(
                    "executor.hydrate.replay", value="ConnectionError", count=None
                ),
            ]
            with use_failpoints(specs) as registry:
                with pytest.raises(WorkerTransportError, match="2 attempts"):
                    cluster.run_shard_phase(
                        "noop", "chaostest.noop", {0: None}, epoch=0
                    )
                assert registry.fired("executor.hydrate.replay") == 2
            # Faults cleared: the next call reconnects, replays the cached
            # hydration for real and the shard answers again.
            result = cluster.run_shard_phase("noop", "chaostest.noop", {0: None}, epoch=0)
            assert 0 in result
        finally:
            cluster.close()


class TestShardLoadFault:
    @pytest.mark.parametrize("executor", ["processes", "tcp"])
    def test_worker_side_load_fault_surfaces_as_task_error(self, executor):
        graph = generators.social_graph(160, avg_degree=4, seed=9)
        # Arm before the engine forks its workers: children inherit the armed
        # registry, so the injection fires *inside the worker process*.
        # after=1 lets each worker's initial build-time load succeed; the
        # re-hydration load after a flush is the one that blows up.
        with use_failpoints(
            [FailPointSpec("shard.load", value="RuntimeError", after=1, count=None)]
        ):
            engine = open_engine(
                graph,
                DSRConfig(num_partitions=2, local_index="msbfs", executor=executor),
            )
            try:
                query = ReachQuery((0, 1, 2), (80, 120))
                assert set(engine.run(query).pairs) == set(
                    reachable_pairs(graph, query.sources, query.targets)
                )
                u, v = next(iter(graph.edges()))
                engine.delete_edge(u, v)
                with pytest.raises(ShardTaskError) as info:
                    engine.flush_updates()
                assert "shard.load" in str(info.value)
            finally:
                engine.close()

    @pytest.mark.parametrize("executor", ["processes", "tcp"])
    def test_failed_rehydration_keeps_the_epoch_and_the_next_flush_publishes(
        self, executor
    ):
        graph = generators.social_graph(160, avg_degree=4, seed=9)
        # One failing re-hydration per worker: the flush that meets it must
        # publish nothing, and the fault must not stick to the shard.
        with use_failpoints(
            [FailPointSpec("shard.load", value="RuntimeError", after=1, count=1)]
        ):
            engine = open_engine(
                graph,
                DSRConfig(num_partitions=2, local_index="msbfs", executor=executor),
            )
            try:
                u, v = next(iter(graph.edges()))
                engine.delete_edge(u, v)
                with pytest.raises(ShardTaskError, match="shard.load"):
                    engine.flush_updates()
                assert engine.epoch == 0
                assert engine.flush_updates().published
                assert engine.epoch == 1
                query = ReachQuery((0, 1, 2), (80, 120))
                assert set(engine.run(query).pairs) == set(
                    reachable_pairs(engine.graph, query.sources, query.targets)
                )
            finally:
                engine.close()


class TestFlushFault:
    def test_flush_fault_is_reported_then_recovers(self, graph):
        engine = open_engine(
            graph.copy(), DSRConfig(num_partitions=2, local_index="msbfs", seed=2)
        )
        service = DSRService(engine, num_workers=1)
        try:
            with use_failpoints(
                [FailPointSpec("service.flush", value="RuntimeError", count=1)]
            ):
                failed = service.handle(UpdateRequest(op="flush"))
                assert isinstance(failed, ErrorResponse)
                assert failed.error == "RuntimeError"
                assert "service.flush" in failed.message
                # The window is spent: the very next flush succeeds.
                recovered = service.handle(UpdateRequest(op="flush"))
            assert isinstance(recovered, UpdateResponse)
            assert recovered.op == "flush"
        finally:
            service.close()
            engine.close()


class TestSeededMatrix:
    def test_every_query_is_correct_or_typed_within_budget(self, graph, tcp_engine):
        """The headline run: a seeded schedule of healthy calls, dropped
        connections and injected stalls, every response checked against
        ground truth or the typed-error whitelist, every latency bounded."""
        service = DSRService(tcp_engine, num_workers=1)
        verts = sorted(graph.vertices())
        cases = []
        for i in range(12):
            sources = tuple(verts[(i * 7) % 100 : (i * 7) % 100 + 4])
            targets = tuple(verts[-((i * 5) % 90 + 4) : len(verts) - (i * 5) % 90])
            cases.append((sources, targets))
        outcomes = []
        try:
            for i, (sources, targets) in enumerate(cases):
                # Specs carry mutable hit accounting — build a fresh window
                # per case so earlier cases never exhaust later ones.
                if i % 4 == 2:  # stall window: tight budget → typed error
                    query = ReachQuery(sources, targets, deadline_ms=80)
                    specs = [
                        FailPointSpec("executor.call", action="delay", value=0.25)
                    ]
                elif i % 4 == 3:  # drop window: reconnect rides it out
                    query = ReachQuery(sources, targets, deadline_ms=10_000)
                    specs = [
                        FailPointSpec("executor.call", value="ConnectionError", count=1)
                    ]
                else:  # healthy traffic, with and without a generous budget
                    query = ReachQuery(
                        sources,
                        targets,
                        deadline_ms=10_000 if i % 2 else None,
                    )
                    specs = []
                started = time.monotonic()
                with use_failpoints(specs):
                    response = service.handle(query)
                elapsed_ms = (time.monotonic() - started) * 1000.0
                if isinstance(response, ErrorResponse):
                    assert response.error in TYPED_ERRORS, response
                    outcomes.append(response.error)
                else:
                    assert isinstance(response, QueryResponse)
                    assert set(response.pairs) == _expected(graph, query)
                    outcomes.append("ok")
                budget = query.deadline_ms or 10_000
                assert elapsed_ms < budget + 5_000  # bounded, never a hang
            # The schedule is deterministic: stall windows produced typed
            # errors, drop windows and healthy traffic produced answers.
            assert outcomes.count("DeadlineExceededError") == 3
            assert outcomes.count("ok") == 9
        finally:
            service.close()
