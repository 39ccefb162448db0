"""Crash-safety and leak tests for the shared-memory shard ledger.

The contract under test:

* every segment a publish creates is unlinked by the time the engine closes
  (and retired epochs are unlinked as soon as the workers drop them);
* killing a worker process mid-stream neither leaks segments nor breaks the
  engine — the executor respawns the worker, replays its hydrations by
  segment name and the query completes transparently;
* none of it may emit ``resource_tracker`` noise (the historical failure
  mode of attach-registered segments, bpo-39959).
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.cluster.shm import ShmLedger, attach, shm_available
from repro.graph import generators
from repro.obs.runtime import global_registry

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory unavailable or disabled"
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _shm_entries(prefix="dsr"):
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(prefix)}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _processes_engine(num_partitions=3, seed=11):
    graph = generators.social_graph(260, avg_degree=5, seed=seed)
    return graph, open_engine(
        graph,
        DSRConfig(
            num_partitions=num_partitions, local_index="msbfs", executor="processes"
        ),
    )


class TestLedgerLifecycle:
    def test_create_retire_close_unlink(self):
        ledger = ShmLedger(prefix="dsrtest")
        ledger.create(0, 0, 128)
        ledger.create(0, 1, 128)
        ledger.create(1, 0, 128)
        assert ledger.segment_count() == 3
        assert ledger.retire_below(1) == 2
        assert ledger.segment_count() == 1
        names = ledger.segment_names()
        assert all("_e1_" in name for name in names)
        ledger.close()
        assert ledger.segment_count() == 0
        for name in names:
            with pytest.raises(FileNotFoundError):
                attach(name)

    def test_same_key_replacement_unlinks_previous(self):
        ledger = ShmLedger(prefix="dsrtest")
        first = ledger.create(0, 0, 64).name
        second = ledger.create(0, 0, 64).name
        assert first != second
        assert ledger.segment_count() == 1
        with pytest.raises(FileNotFoundError):
            attach(first)
        segment = attach(second)
        segment.close()
        ledger.close()

    def test_attach_survives_unlink(self):
        # POSIX semantics the whole epoch-retire design leans on: an
        # attached mapping stays readable after the owner unlinks the name.
        ledger = ShmLedger(prefix="dsrtest")
        segment = ledger.create(0, 0, 64)
        segment.buf[:4] = b"abcd"
        reader = attach(segment.name)
        ledger.close()
        assert bytes(reader.buf[:4]) == b"abcd"
        reader.close()


class TestEngineSegmentLifecycle:
    def test_engine_close_unlinks_all_segments(self):
        before = _shm_entries()
        graph, engine = _processes_engine()
        try:
            engine.run(ReachQuery((0, 1, 2), (100, 150, 200)))
            created = _shm_entries() - before
            assert created, "processes engine should publish shm segments"
        finally:
            engine.close()
        assert _shm_entries() - before == set()

    def test_epoch_retire_unlinks_old_segments(self):
        graph, engine = _processes_engine()
        try:
            ledger = engine.index._shm_ledger
            assert ledger is not None
            edges = list(graph.edges())
            for u, v in edges[:2]:
                engine.delete_edge(u, v)
            engine.flush_updates()  # epoch 1: retains {0, 1}
            for u, v in edges[2:4]:
                engine.delete_edge(u, v)
            engine.flush_updates()  # epoch 2: retires epoch 0
            held_epochs = {
                int(name.split("_e")[1].split("_")[0])
                for name in ledger.segment_names()
            }
            assert held_epochs == {1, 2}
        finally:
            engine.close()

    def test_disabled_via_env_falls_back_to_pickled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "0")
        before = _shm_entries()
        graph, engine = _processes_engine(seed=13)
        try:
            result = engine.run(ReachQuery((0, 1), (40, 60)))
            assert engine.index._shm_ledger is None
            assert _shm_entries() - before == set()
            reference = open_engine(
                graph, DSRConfig(num_partitions=3, local_index="msbfs")
            )
            assert result.pairs == reference.run(ReachQuery((0, 1), (40, 60))).pairs
            reference.close()
        finally:
            engine.close()


class TestWorkerCrashRecovery:
    def test_killed_worker_respawns_and_query_completes(self):
        registry = global_registry()
        was_enabled = registry.enabled
        registry.enabled = True
        respawns_before = registry.counter_total("dsr_worker_respawns_total")
        graph, engine = _processes_engine()
        try:
            query = ReachQuery(tuple(range(0, 30)), tuple(range(120, 160)))
            expected = engine.run(query).pairs
            executor = engine.cluster.executor
            victim_process = executor._managed[1]
            os.kill(victim_process.pid, signal.SIGKILL)
            victim_process.join(timeout=5.0)
            # The next query hits the dead socket, respawns rank 1, replays
            # its hydrations from the cache (attach-by-name) and completes.
            assert engine.run(query).pairs == expected
            new_process = executor._managed[1]
            assert new_process.pid != victim_process.pid
            respawns_after = registry.counter_total("dsr_worker_respawns_total")
            assert respawns_after > respawns_before
        finally:
            registry.enabled = was_enabled
            engine.close()

    def test_killed_worker_leaks_no_segments(self):
        before = _shm_entries()
        graph, engine = _processes_engine(seed=17)
        try:
            engine.run(ReachQuery((0, 1), (50, 90)))
            process = engine.cluster.executor._managed[0]
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5.0)
        finally:
            engine.close()
        assert _shm_entries() - before == set()


class TestNoResourceTrackerNoise:
    def test_subprocess_run_emits_no_tracker_warnings(self):
        """Full engine lifecycle in a clean interpreter: stderr must not
        mention the resource tracker (leaked segment or double-unregister)."""
        script = textwrap.dedent(
            """
            from repro.api import DSRConfig, ReachQuery, open_engine
            from repro.graph import generators

            graph = generators.social_graph(200, avg_degree=4, seed=5)
            engine = open_engine(
                graph,
                DSRConfig(num_partitions=3, local_index="msbfs", executor="processes"),
            )
            engine.run(ReachQuery((0, 1, 2), (50, 100)))
            edges = list(graph.edges())[:2]
            for u, v in edges:
                engine.delete_edge(u, v)
            engine.run(ReachQuery((0, 1, 2), (50, 100)))
            engine.close()
            print("DONE")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=180,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert "DONE" in completed.stdout
        # No tracker noise of either historical flavour: "leaked
        # shared_memory objects" at exit, or KeyError tracebacks from a
        # double unregister.
        assert "resource_tracker" not in completed.stderr, completed.stderr

    def test_subprocess_sigkill_midstream_leaves_no_segments(self):
        """Kill an engine process (master) without close(): the atexit hook
        never runs, but the resource tracker unlinks what the crash left —
        /dev/shm must converge to empty for this engine's segments."""
        marker = f"dsrcrash{os.getpid()}"
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.cluster.shm import ShmLedger

            ledger = ShmLedger(prefix={marker!r})
            ledger.create(0, 0, 4096)
            ledger.create(0, 1, 4096)
            print("READY", flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert completed.returncode != 0  # SIGKILL
        assert "READY" in completed.stdout
        # The dead process's resource tracker reaps the segments; give it a
        # moment on slow machines.
        deadline = time.time() + 10.0
        while time.time() < deadline and _shm_entries(marker):
            time.sleep(0.1)
        assert _shm_entries(marker) == set()
