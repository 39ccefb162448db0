"""Circuit-breaker state machine + HealthSupervisor probe tests.

Every test drives the breaker's backoff window with an injected fake clock —
no sleeping through wall time, fully deterministic transitions.
"""

import threading

import pytest

from repro.api import DSRConfig
from repro.cli import _print_health
from repro.core.engine import DSREngine
from repro.graph import generators
from repro.obs import use_registry
from repro.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BackoffPolicy,
    CircuitBreaker,
    HealthSupervisor,
)
from repro.service.server import DSRService

FAST = BackoffPolicy(base_seconds=1.0, multiplier=2.0, cap_seconds=60.0, jitter=0.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker("t", failure_threshold=3, backoff=FAST, clock=clock)
        assert breaker.record_failure() == BREAKER_CLOSED
        assert breaker.record_failure() == BREAKER_CLOSED
        assert breaker.record_failure() == BREAKER_OPEN
        assert breaker.is_open
        assert breaker.open_count == 1

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        breaker = CircuitBreaker("t", failure_threshold=2, backoff=FAST, clock=clock)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() == BREAKER_CLOSED
        assert breaker.consecutive_failures == 1

    def test_open_suppresses_probes_until_backoff_elapses(self):
        clock = FakeClock()
        breaker = CircuitBreaker("t", failure_threshold=1, backoff=FAST, clock=clock)
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow_probe()
        assert breaker.seconds_until_probe() == pytest.approx(1.0)
        clock.advance(1.0)
        # Window elapsed: exactly one probe is allowed, via half-open.
        assert breaker.allow_probe()
        assert breaker.state == BREAKER_HALF_OPEN

    def test_half_open_failure_reopens_with_longer_backoff(self):
        clock = FakeClock()
        breaker = CircuitBreaker("t", failure_threshold=1, backoff=FAST, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow_probe()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.open_count == 2
        # Exponential: the second open waits base * multiplier.
        assert breaker.seconds_until_probe() == pytest.approx(2.0)

    def test_half_open_success_closes_and_resets(self):
        clock = FakeClock()
        breaker = CircuitBreaker("t", failure_threshold=1, backoff=FAST, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow_probe()
        assert breaker.record_success() == BREAKER_CLOSED
        assert not breaker.is_open
        assert breaker.open_count == 0

    def test_transitions_and_state_are_published_as_metrics(self):
        clock = FakeClock()
        with use_registry() as registry:
            breaker = CircuitBreaker(
                "worker:0", failure_threshold=1, backoff=FAST, clock=clock
            )
            assert registry.gauge_value("dsr_breaker_state", target="worker:0") == 0.0
            breaker.record_failure()
            assert registry.gauge_value("dsr_breaker_state", target="worker:0") == 2.0
            assert (
                registry.counter_value(
                    "dsr_breaker_transitions_total", target="worker:0", to="open"
                )
                == 1
            )
            clock.advance(1.0)
            breaker.allow_probe()
            assert registry.gauge_value("dsr_breaker_state", target="worker:0") == 1.0
            breaker.record_success()
            assert registry.gauge_value("dsr_breaker_state", target="worker:0") == 0.0

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker("t", failure_threshold=0)


class TestHealthSupervisor:
    def _supervisor(self, clock, **kwargs):
        kwargs.setdefault("failure_threshold", 2)
        kwargs.setdefault("backoff", FAST)
        return HealthSupervisor(probe_interval_seconds=60.0, clock=clock, **kwargs)

    def test_probe_now_opens_and_recloses_the_breaker(self):
        clock = FakeClock()
        supervisor = self._supervisor(clock)
        health = {"value": False}
        probes = []

        def probe():
            probes.append(clock())
            return health["value"]

        breaker = supervisor.add_target("worker:0", probe=probe)
        assert supervisor.probe_now() == {"worker:0": False}
        supervisor.probe_now()
        # Threshold reached: breaker open.
        assert breaker.state == BREAKER_OPEN
        # Still open, inside backoff: the target is not touched.
        assert supervisor.probe_now() == {"worker:0": False}
        assert len(probes) == 2
        # Recovery: advance past the window, the probe goes healthy → closed.
        health["value"] = True
        clock.advance(FAST.delay(1))
        assert supervisor.probe_now() == {"worker:0": True}
        assert breaker.state == BREAKER_CLOSED

    def test_probe_exceptions_count_as_failures(self):
        clock = FakeClock()
        supervisor = self._supervisor(clock, failure_threshold=1)

        def explode():
            raise RuntimeError("probe blew up")

        supervisor.add_target("worker:1", probe=explode)
        assert supervisor.probe_now() == {"worker:1": False}
        assert supervisor.breaker("worker:1").state == BREAKER_OPEN

    def test_half_open_probe_failure_reopens_the_breaker(self):
        clock = FakeClock()
        supervisor = self._supervisor(clock, failure_threshold=1)
        supervisor.add_target("worker:2", probe=lambda: False)
        supervisor.probe_now()
        clock.advance(FAST.delay(1))
        supervisor.probe_now()  # half-open probe fails → reopen
        assert supervisor.breaker("worker:2").state == BREAKER_OPEN
        assert supervisor.breaker("worker:2").open_count == 2

    def test_duplicate_target_rejected(self):
        supervisor = self._supervisor(FakeClock())
        supervisor.add_target("x", probe=lambda: True)
        with pytest.raises(ValueError, match="already supervised"):
            supervisor.add_target("x", probe=lambda: True)

    def test_probe_outcomes_counted(self):
        clock = FakeClock()
        with use_registry() as registry:
            supervisor = self._supervisor(clock)
            flag = {"value": True}
            supervisor.add_target("w", probe=lambda: flag["value"])
            supervisor.probe_now()
            flag["value"] = False
            supervisor.probe_now()
            assert (
                registry.counter_value(
                    "dsr_health_probes_total", target="w", outcome="ok"
                )
                == 1
            )
            assert (
                registry.counter_value(
                    "dsr_health_probes_total", target="w", outcome="fail"
                )
                == 1
            )

    def test_stats_shape(self):
        clock = FakeClock()
        supervisor = self._supervisor(clock, failure_threshold=1)
        supervisor.add_target("worker:0", probe=lambda: False)
        supervisor.probe_now()
        stats = supervisor.stats()
        assert stats["running"] is False
        row = stats["targets"]["worker:0"]
        assert row["state"] == BREAKER_OPEN
        assert row["opens"] == 1
        assert row["next_probe_seconds"] == pytest.approx(1.0)

    def test_background_loop_start_stop(self):
        supervisor = HealthSupervisor(probe_interval_seconds=0.02)
        hits = []
        supervisor.add_target("t", probe=lambda: hits.append(1) or True)
        supervisor.start()
        assert supervisor.running
        deadline = 5.0
        import time as _time

        start = _time.monotonic()
        while not hits and _time.monotonic() - start < deadline:
            _time.sleep(0.01)
        supervisor.stop()
        assert hits
        assert not supervisor.running

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            HealthSupervisor(probe_interval_seconds=0)

    @pytest.mark.parametrize("callback", ["on_eject", "on_admit"])
    def test_add_target_takes_no_callbacks(self, callback):
        supervisor = self._supervisor(FakeClock())
        with pytest.raises(TypeError):
            supervisor.add_target(
                "worker:0", probe=lambda: True, **{callback: lambda: None}
            )
        assert supervisor.target_names() == []

    def test_background_loop_probes_until_stopped(self):
        probed = threading.Event()
        supervisor = HealthSupervisor(probe_interval_seconds=0.01)
        supervisor.add_target("worker:0", probe=lambda: probed.set() or True)
        assert supervisor.start() is supervisor
        try:
            assert probed.wait(timeout=10.0)
            assert supervisor.running
            assert supervisor.stats()["running"] is True
        finally:
            supervisor.stop()
        assert not supervisor.running
        assert supervisor.breaker("worker:0").state == BREAKER_CLOSED


class TestServiceIntegration:
    @pytest.fixture
    def graph(self):
        return generators.social_graph(120, avg_degree=3, seed=4)

    @pytest.mark.parametrize("executor", ["processes", "tcp"])
    def test_service_supervises_remote_workers(self, graph, executor):
        engine = DSREngine.from_config(
            graph.copy(),
            DSRConfig(
                num_partitions=2, local_index="msbfs", seed=2, executor=executor
            ),
        )
        engine.build_index()
        service = DSRService(
            engine, num_workers=1, health_probe_interval_seconds=300.0
        )
        try:
            assert service.health is not None
            assert service.health.target_names() == ["worker:0", "worker:1"]
            # ping() round-trips through the live workers.
            assert service.health.probe_now() == {
                "worker:0": True,
                "worker:1": True,
            }
        finally:
            service.close()
            engine.close()

    def test_health_disabled_by_default(self, graph):
        engine = DSREngine.from_config(graph, DSRConfig(num_partitions=2, seed=2))
        service = DSRService(engine, num_workers=1)
        try:
            assert service.health is None
            assert "health" not in service.stats()
        finally:
            service.close()

    @pytest.mark.parametrize("executor", ["serial"])
    def test_engines_without_worker_hosts_get_no_supervisor(self, graph, executor):
        engine = DSREngine.from_config(
            graph, DSRConfig(num_partitions=2, seed=2, executor=executor)
        )
        service = DSRService(
            engine, num_workers=1, health_probe_interval_seconds=300.0
        )
        try:
            assert service.health is None
            assert "health" not in service.stats()
        finally:
            service.close()
            engine.close()

    def test_health_table_and_close_for_tcp_worker_hosts(self, graph, capsys):
        engine = DSREngine.from_config(
            graph.copy(),
            DSRConfig(num_partitions=2, seed=2, executor="tcp"),
        )
        engine.build_index()
        service = DSRService(
            engine, num_workers=1, health_probe_interval_seconds=300.0
        )
        try:
            service.health.probe_now()
            _print_health(service)
            table = capsys.readouterr().out
            header = next(line for line in table.splitlines() if "target" in line)
            assert header.split() == ["target", "state", "fails", "opens"]
            assert "worker:0" in table and "worker:1" in table
            assert service.health.running
        finally:
            service.close()
            engine.close()
        assert not service.health.running
