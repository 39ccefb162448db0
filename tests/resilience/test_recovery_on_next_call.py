"""Recovery on the next call: the one path that heals a killed worker.

A shard worker (a ``processes`` child or a managed ``tcp`` host) that dies
between requests is found by the next call that meets its link.  The
executor reconnects, respawns that rank's worker, replays its cached
hydrations and retries, so the request that meets the corpse still answers
exactly.  These cases drive that path through the service and the engine,
rank by rank, across publishes, and check that nothing else probes or heals
the workers: no health state, no ``ping`` command, no breaker metrics.
"""

import importlib.util
import os
import signal

import pytest

import repro.resilience
from repro.api import DSRConfig, ReachQuery, open_engine
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.executors import (
    ShardTaskError,
    register_shard_loader,
    register_shard_task,
)
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.obs import use_registry
from repro.service.protocol import QueryRequest, UpdateRequest
from repro.service.server import DSRService

SHARDED = ["processes", "tcp"]

SOURCES = tuple(range(0, 40, 2))
TARGETS = tuple(range(80, 150, 3))


@register_shard_loader("recoverytest.load")
def _load(blob):
    return dict(blob)


@register_shard_task("recoverytest.scale")
def _scale(shard, payload):
    return shard["factor"] * payload


def _engine(executor, seed=5):
    graph = generators.social_graph(160, avg_degree=4, seed=seed)
    return open_engine(
        graph,
        DSRConfig(num_partitions=2, local_index="msbfs", seed=2, executor=executor),
    )


def _kill(executor, rank):
    """SIGKILL ``rank``'s current worker and reap it; its pid."""
    victim = executor._managed[rank]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=5.0)
    assert not victim.is_alive()
    return victim.pid


def _oracle(engine, sources=SOURCES, targets=TARGETS):
    return reachable_pairs(engine.graph, sources, targets)


@pytest.fixture(params=SHARDED)
def served(request):
    """A service over a sharded engine, with the answer cache off so every
    query reaches the workers."""
    engine = _engine(request.param)
    service = DSRService(engine, num_workers=1, enable_cache=False)
    try:
        yield service
    finally:
        service.close()
        engine.close()


class TestServiceRecovery:
    def test_query_after_kill_matches_oracle(self, served):
        engine = served.engine
        request = QueryRequest(SOURCES, TARGETS)
        assert set(served.handle(request).pairs) == _oracle(engine)
        _kill(engine.cluster.executor, 0)
        response = served.handle(request)
        assert set(response.pairs) == _oracle(engine)
        assert not response.cached
        assert served.stats()["executor"] == engine.cluster.executor.name

    def test_metrics_count_one_respawn_and_no_probes(self, served):
        executor = served.engine.cluster.executor
        served.handle(QueryRequest(SOURCES, TARGETS))
        with use_registry() as registry:
            _kill(executor, 1)
            served.handle(QueryRequest(SOURCES, TARGETS))
            assert registry.counter_total("dsr_worker_respawns_total") == 1
            assert registry.counter_total("dsr_worker_reconnects_total") >= 1
            text = served.metrics_text()
        assert "dsr_worker_respawns_total" in text
        assert "dsr_worker_reconnects_total" in text
        assert "dsr_breaker_" not in text
        assert "dsr_health_probes" not in text

    def test_update_and_flush_after_kill(self, served):
        engine = served.engine
        served.handle(QueryRequest(SOURCES, TARGETS))
        _kill(engine.cluster.executor, 1)
        for u, v in list(engine.graph.edges())[:3]:
            served.handle(UpdateRequest("delete-edge", u, v))
        served.handle(UpdateRequest("flush"))
        response = served.handle(QueryRequest(SOURCES, TARGETS))
        assert response.epoch == engine.epoch
        assert set(response.pairs) == _oracle(engine)


@pytest.mark.parametrize("executor", SHARDED)
class TestEngineRecovery:
    @pytest.mark.parametrize("rank", [0, 1])
    def test_only_the_killed_rank_is_respawned(self, executor, rank):
        engine = _engine(executor)
        try:
            query = ReachQuery(SOURCES, TARGETS)
            assert engine.run(query).pairs == _oracle(engine)
            managed = engine.cluster.executor._managed
            survivor = managed[1 - rank].pid
            dead = _kill(engine.cluster.executor, rank)
            assert engine.run(query).pairs == _oracle(engine)
            assert managed[rank].pid != dead
            assert managed[rank].is_alive()
            assert managed[1 - rank].pid == survivor
        finally:
            engine.close()

    def test_every_rank_killed_at_once(self, executor):
        engine = _engine(executor)
        try:
            query = ReachQuery(SOURCES, TARGETS)
            expected = engine.run(query)
            dead = {rank: _kill(engine.cluster.executor, rank) for rank in (0, 1)}
            result = engine.run(query)
            assert result.pairs == expected.pairs == _oracle(engine)
            assert result.messages_sent == expected.messages_sent
            managed = engine.cluster.executor._managed
            assert all(managed[rank].pid != dead[rank] for rank in (0, 1))
        finally:
            engine.close()

    def test_each_of_repeated_kills_is_recovered(self, executor):
        engine = _engine(executor)
        try:
            query = ReachQuery(SOURCES, TARGETS)
            engine.run(query)
            with use_registry() as registry:
                for round_ in range(3):
                    _kill(engine.cluster.executor, round_ % 2)
                    assert engine.run(query).pairs == _oracle(engine)
                assert registry.counter_total("dsr_worker_respawns_total") == 3
        finally:
            engine.close()

    def test_kill_after_publish_replays_the_new_epoch(self, executor):
        engine = _engine(executor)
        try:
            query = ReachQuery(SOURCES, TARGETS)
            engine.run(query)
            for u, v in list(engine.graph.edges())[:4]:
                engine.delete_edge(u, v)
            assert engine.flush_updates().published
            _kill(engine.cluster.executor, 0)
            assert engine.run(query).pairs == _oracle(engine)
            assert engine.epoch in engine.cluster.executor._hydration_cache[0]
        finally:
            engine.close()


class TestNoProbeSurfaces:
    def test_service_takes_no_health_probe_interval(self):
        engine = _engine("serial")
        try:
            with pytest.raises(TypeError):
                DSRService(engine, num_workers=1, health_probe_interval_seconds=1.0)
        finally:
            engine.close()

    @pytest.mark.parametrize("executor", ["serial", *SHARDED])
    def test_service_keeps_no_health_state(self, executor):
        engine = _engine(executor)
        service = DSRService(engine, num_workers=1)
        try:
            service.handle(QueryRequest(SOURCES, TARGETS))
            assert not hasattr(service, "health")
            assert "health" not in service.stats()
        finally:
            service.close()
            engine.close()

    def test_resilience_package_has_no_supervisor(self):
        assert importlib.util.find_spec("repro.resilience.supervisor") is None
        for name in ("HealthSupervisor", "CircuitBreaker", "BREAKER_OPEN"):
            assert not hasattr(repro.resilience, name)
            assert name not in repro.resilience.__all__

    @pytest.mark.parametrize("name", SHARDED)
    def test_worker_answers_ping_as_an_unknown_command(self, name):
        cluster = SimulatedCluster(2, executor=name)
        try:
            executor = cluster.executor
            assert not hasattr(executor, "ping")
            cluster.hydrate_shards(
                0, {0: {"factor": 1}, 1: {"factor": 2}}, "recoverytest.load"
            )
            pid = executor._managed[0].pid
            with pytest.raises(ShardTaskError, match="unknown command 'ping'"):
                executor._call_worker(0, ("ping",))
            # A typed refusal, not a transport failure: the link and the
            # worker survive it.
            assert cluster.run_shard_phase(
                "scale", "recoverytest.scale", {0: 3, 1: 3}, epoch=0
            ) == {0: 3, 1: 6}
            assert executor._managed[0].pid == pid
        finally:
            cluster.close()


class TestLifeline:
    @pytest.mark.parametrize("generation", ["first", "respawned"])
    def test_host_stops_when_its_lifeline_closes(self, generation):
        cluster = SimulatedCluster(2, executor="tcp")
        try:
            executor = cluster.executor
            cluster.hydrate_shards(
                0, {0: {"factor": 1}, 1: {"factor": 2}}, "recoverytest.load"
            )
            phase = ("scale", "recoverytest.scale", {0: 5, 1: 5})
            assert cluster.run_shard_phase(*phase, epoch=0) == {0: 5, 1: 10}
            if generation == "respawned":
                _kill(executor, 0)
                assert cluster.run_shard_phase(*phase, epoch=0) == {0: 5, 1: 10}
            host = executor._managed[0]
            lifeline = executor._lifelines[0]
            lifeline.close()  # as the kernel does when the master dies
            host.join(timeout=10.0)
            assert not host.is_alive()
            assert executor._managed[1].is_alive()
            # The stopped host is then just a dead worker: the next call
            # respawns it on a fresh lifeline and replays its shard.
            assert cluster.run_shard_phase(*phase, epoch=0) == {0: 5, 1: 10}
            assert executor._managed[0].pid != host.pid
            assert executor._lifelines[0] is not lifeline
        finally:
            cluster.close()

    @pytest.mark.parametrize("name", SHARDED)
    def test_close_stops_respawned_workers(self, name):
        cluster = SimulatedCluster(2, executor=name)
        executor = cluster.executor
        try:
            cluster.hydrate_shards(
                0, {0: {"factor": 1}, 1: {"factor": 2}}, "recoverytest.load"
            )
            _kill(executor, 1)
            assert cluster.run_shard_phase(
                "scale", "recoverytest.scale", {0: 2, 1: 2}, epoch=0
            ) == {0: 2, 1: 4}
            workers = list(executor._managed.values())
        finally:
            cluster.close()
        assert len(workers) == 2
        assert not any(worker.is_alive() for worker in workers)
        assert executor._managed == {} and executor._lifelines == {}
