"""End-to-end deadline tests: query field, protocol gating, enforcement.

Enforcement points exercised here: admission/queue shedding in the service,
the checkpoints after the engine-lock wait and between steps 1 and 3, and
the remote executors' remaining-budget socket timeout (a wedged worker yields
a typed error, not a hang, on ``processes`` and ``tcp`` alike).
"""

import os
import time

import pytest

from repro.api import DSRConfig, QueryError, ReachQuery
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.executors import register_shard_loader, register_shard_task
from repro.core.engine import DSREngine
from repro.graph import generators
from repro.obs import use_registry
from repro.resilience import (
    Deadline,
    DeadlineExceededError,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from repro.service.protocol import (
    QueryRequest,
    decode,
    encode,
    pack_frame,
    unpack_frame,
)
from repro.service.server import DSRService, ErrorResponse


@register_shard_loader("restest.load")
def _load(blob):
    return dict(blob)


@register_shard_task("restest.sleep")
def _sleep(shard, payload):
    time.sleep(payload)
    return "done"


class TestDeadlineObject:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-5)

    def test_from_query_none_without_budget(self):
        assert Deadline.from_query(ReachQuery((1,), (2,))) is None
        deadline = Deadline.from_query(ReachQuery((1,), (2,), deadline_ms=500))
        assert deadline is not None
        assert deadline.deadline_ms == 500.0

    def test_expiry_and_remaining(self):
        fresh = Deadline(60_000)
        assert not fresh.expired
        assert fresh.remaining_seconds() > 50
        stale = Deadline(10, started_at=time.monotonic() - 1.0)
        assert stale.expired
        assert stale.remaining_seconds() < 0

    def test_exceeded_carries_stage_and_counts(self):
        stale = Deadline(10, started_at=time.monotonic() - 1.0)
        with use_registry() as registry:
            error = stale.exceeded("rpc")
        assert isinstance(error, DeadlineExceededError)
        assert error.stage == "rpc"
        assert error.deadline_ms == 10.0
        assert error.elapsed_ms > 10.0
        assert (
            registry.counter_value("dsr_deadline_exceeded_total", stage="rpc") == 1
        )

    def test_check_raises_only_when_expired(self):
        Deadline(60_000).check("batch")
        with pytest.raises(DeadlineExceededError):
            Deadline(10, started_at=time.monotonic() - 1.0).check("batch")


class TestScope:
    def test_scope_visibility_and_restore(self):
        assert current_deadline() is None
        deadline = Deadline(60_000)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_none_shadows_an_outer_scope(self):
        outer = Deadline(10, started_at=time.monotonic() - 1.0)
        with deadline_scope(outer):
            with deadline_scope(None):
                assert current_deadline() is None
                check_deadline("engine")  # no-op despite expired outer
            assert current_deadline() is outer

    def test_check_deadline_is_noop_without_scope(self):
        check_deadline("anywhere")

    def test_check_deadline_raises_in_expired_scope(self):
        with deadline_scope(Deadline(10, started_at=time.monotonic() - 1.0)):
            with pytest.raises(DeadlineExceededError) as info:
                check_deadline("engine")
        assert info.value.stage == "engine"


class TestQueryField:
    def test_validation(self):
        assert ReachQuery((1,), (2,)).deadline_ms is None
        assert ReachQuery((1,), (2,), deadline_ms=250).deadline_ms == 250
        for bad in (0, -10, True, "fast"):
            with pytest.raises(QueryError, match="deadline_ms"):
                ReachQuery((1,), (2,), deadline_ms=bad)

    def test_dict_round_trip(self):
        query = ReachQuery((1, 2), (3,), deadline_ms=125.5)
        clone = ReachQuery.from_dict(query.to_dict())
        assert clone.deadline_ms == 125.5


class TestProtocolGating:
    def test_v6_carries_deadline_v5_strips_it(self):
        request = QueryRequest((1, 2), (9,), deadline_ms=250.0)
        assert encode(request, version=6)["deadline_ms"] == 250.0
        assert "deadline_ms" not in encode(request, version=5)

    def test_wire_round_trip(self):
        request = QueryRequest((1,), (2,), deadline_ms=75.0)
        assert unpack_frame(pack_frame(request))[0].deadline_ms == 75.0
        # A v5 frame decodes to a query without a budget.
        assert decode(encode(request, version=5)).deadline_ms is None


# Default serial, but honour REPRO_TEST_EXECUTORS (first entry) so the CI
# chaos job re-runs service enforcement against real forked workers.
SERVICE_EXECUTOR = (
    os.environ.get("REPRO_TEST_EXECUTORS", "serial").split(",")[0].strip()
)


@pytest.fixture(scope="module")
def engine():
    graph = generators.social_graph(80, avg_degree=3, seed=3)
    engine = DSREngine.from_config(
        graph,
        DSRConfig(
            num_partitions=2,
            local_index="msbfs",
            seed=2,
            executor=SERVICE_EXECUTOR,
        ),
    )
    engine.build_index()
    yield engine
    engine.close()


class TestServiceEnforcement:
    def test_expired_budget_is_shed_with_a_typed_error(self, engine):
        service = DSRService(engine, num_workers=1)
        try:
            vertices = sorted(engine.graph.vertices())
            # A 1µs budget is spent before any worker can dequeue: the
            # request must come back as the typed error, never hang, and
            # never reach the engine as a half-run query.
            response = service.submit(
                ReachQuery(
                    (vertices[0],), (vertices[-1],), deadline_ms=0.001
                )
            ).result(timeout=10.0)
            assert isinstance(response, ErrorResponse)
            assert response.error == "DeadlineExceededError"
        finally:
            service.close()

    def test_admission_check_on_the_direct_path(self, engine):
        service = DSRService(engine, num_workers=1)
        try:
            vertices = sorted(engine.graph.vertices())
            expired = Deadline(5, started_at=time.monotonic() - 1.0)
            with use_registry() as registry:
                response = service.handle(
                    ReachQuery((vertices[0],), (vertices[-1],), deadline_ms=5),
                    deadline=expired,
                )
            assert isinstance(response, ErrorResponse)
            assert response.error == "DeadlineExceededError"
            assert (
                registry.counter_value(
                    "dsr_deadline_exceeded_total", stage="admission"
                )
                == 1
            )
        finally:
            service.close()

    def test_engine_checkpoint_fires_after_a_lock_wait(self, engine, monkeypatch):
        """The budget runs out while another thread (a flush, say) holds the
        engine lock: typed error at ``engine``, and the run never starts."""
        service = DSRService(engine, num_workers=1)
        runs = []
        monkeypatch.setattr(engine, "run", lambda query: runs.append(query))
        try:
            vertices = sorted(engine.graph.vertices())
            with use_registry() as registry:
                with service._engine_lock:
                    future = service.submit(
                        ReachQuery(
                            tuple(vertices[:4]), tuple(vertices[-4:]), deadline_ms=50
                        )
                    )
                    time.sleep(0.15)
                response = future.result(timeout=10.0)
            assert isinstance(response, ErrorResponse)
            assert response.error == "DeadlineExceededError"
            assert "(engine)" in response.message
            assert runs == []
            assert (
                registry.counter_value("dsr_deadline_exceeded_total", stage="engine")
                == 1
            )
        finally:
            service.close()

    def test_step3_checkpoint_stops_a_run_between_its_steps(self, engine, monkeypatch):
        """Step 1 outlives the budget: typed error at ``step3``, and step 3
        is never dispatched — no partial answer, no wasted fan-out."""
        service = DSRService(engine, num_workers=1, enable_cache=False)
        phases = []
        slow_step1 = [False]

        def recording(method):
            def run(name, *args, **kwargs):
                phases.append(name)
                result = method(name, *args, **kwargs)
                # Late only once step 1 has returned: sleeping before the
                # call would let a sharded executor's own RPC check fire
                # first, and the run would stop at ``rpc``, not ``step3``.
                if name == "local" and slow_step1[0]:
                    time.sleep(0.3)
                return result

            return run

        cluster = engine.cluster
        monkeypatch.setattr(cluster, "run_phase", recording(cluster.run_phase))
        monkeypatch.setattr(
            cluster, "run_shard_phase", recording(cluster.run_shard_phase)
        )
        try:
            vertices = tuple(sorted(engine.graph.vertices()))
            # Every vertex on both sides: some target is interior to a
            # remote partition, so an unhurried run does reach step 3.
            assert not isinstance(
                service.handle(ReachQuery(vertices, vertices)), ErrorResponse
            )
            assert phases == ["local", "remote"]
            del phases[:]
            slow_step1[0] = True
            started = time.monotonic()
            with use_registry() as registry:
                response = service.handle(
                    ReachQuery(vertices, vertices, deadline_ms=200)
                )
            assert isinstance(response, ErrorResponse)
            assert response.error == "DeadlineExceededError"
            assert "(step3)" in response.message
            assert phases == ["local"]
            assert time.monotonic() - started < 5.0
            assert (
                registry.counter_value("dsr_deadline_exceeded_total", stage="step3")
                == 1
            )
        finally:
            service.close()

    def test_deadline_free_traffic_is_untouched(self, engine):
        service = DSRService(engine, num_workers=1)
        try:
            vertices = sorted(engine.graph.vertices())
            response = service.submit(
                ReachQuery(tuple(vertices[:4]), tuple(vertices[-4:]))
            ).result(timeout=30.0)
            assert not isinstance(response, ErrorResponse)
        finally:
            service.close()


@pytest.mark.parametrize("executor", ["processes", "tcp"])
class TestSocketTimeout:
    def test_wedged_host_yields_typed_error_within_budget(self, executor):
        cluster = SimulatedCluster(1, executor=executor)
        try:
            cluster.hydrate_shards(0, {0: {"rank": 0}}, "restest.load")
            started = time.monotonic()
            with deadline_scope(Deadline(150)):
                with pytest.raises(DeadlineExceededError) as info:
                    # The worker sleeps 1.5s against a 150ms budget: the
                    # remaining budget became the socket timeout.
                    cluster.run_shard_phase(
                        "sleep", "restest.sleep", {0: 1.5}, epoch=0
                    )
            elapsed = time.monotonic() - started
            assert info.value.stage == "rpc"
            assert elapsed < 1.0  # did not wait out the wedged call
            wedged = cluster.executor._managed[0]
            # The executor dropped the poisoned socket; deadline-free
            # traffic afterwards reconnects and works.
            assert cluster.run_shard_phase(
                "sleep", "restest.sleep", {0: 0.0}, epoch=0
            ) == {0: "done"}
            # ... without waiting out the wedged 1.5s task either.
            assert time.monotonic() - started < 1.4
            if executor == "processes":
                # A child serves one link: the wedged one was replaced by a
                # re-hydrated substitute and reaped, not left running.
                assert cluster.executor._managed[0].pid != wedged.pid
                assert wedged.exitcode is not None
            else:
                # A worker host serves each connection on its own thread:
                # the same host answers on a fresh connection.
                assert cluster.executor._managed[0] is wedged
        finally:
            cluster.close()
