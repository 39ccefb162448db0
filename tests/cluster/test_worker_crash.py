"""Crash-safety and leak tests for engines on the sharded executors.

The contract under test, on ``processes`` and ``tcp`` alike:

* hydration ships each worker a self-contained pickled shard, so neither a
  publish nor a crash leaves anything behind in ``/dev/shm``;
* killing a worker process mid-stream does not break the engine — the
  executor respawns the worker, replays its shard hydrations and the query
  completes transparently;
* a full engine lifecycle emits no ``resource_tracker`` noise;
* a master killed without ``close()`` takes its workers with it: a
  ``processes`` child serves one socketpair end and a managed ``tcp`` host
  holds one lifeline end, and each exits on its EOF.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.obs.runtime import global_registry

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SHARDED = ["processes", "tcp"]


def _shm_entries():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def _engine(executor, num_partitions=3, seed=11):
    graph = generators.social_graph(260, avg_degree=5, seed=seed)
    return graph, open_engine(
        graph,
        DSRConfig(num_partitions=num_partitions, local_index="msbfs", executor=executor),
    )


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return env


def _alive(pid):
    """Whether ``pid`` names a running (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False


@pytest.mark.parametrize("executor", SHARDED)
class TestHydrationLeavesNoSegments:
    def test_run_and_flush_create_no_shm_entries(self, executor):
        before = _shm_entries()
        graph, engine = _engine(executor)
        try:
            query = ReachQuery((0, 1, 2), (100, 150, 200))
            engine.run(query)
            for u, v in list(graph.edges())[:2]:
                engine.delete_edge(u, v)
            assert engine.flush_updates().published  # re-hydrates every rank
            assert engine.run(query).pairs == reachable_pairs(
                engine.graph, query.sources, query.targets
            )
            assert _shm_entries() - before == set()
        finally:
            engine.close()


@pytest.mark.parametrize("executor", SHARDED)
class TestWorkerCrashRecovery:
    def test_killed_worker_respawns_and_query_completes(self, executor):
        registry = global_registry()
        was_enabled = registry.enabled
        registry.enabled = True
        respawns_before = registry.counter_total("dsr_worker_respawns_total")
        graph, engine = _engine(executor)
        try:
            query = ReachQuery(tuple(range(0, 30)), tuple(range(120, 160)))
            expected = engine.run(query).pairs
            assert expected == reachable_pairs(graph, query.sources, query.targets)
            managed = engine.cluster.executor._managed
            victim_process = managed[1]
            os.kill(victim_process.pid, signal.SIGKILL)
            victim_process.join(timeout=5.0)
            # The next query hits the dead socket, respawns rank 1, replays
            # its pickled shard hydrations from the cache and completes.
            assert engine.run(query).pairs == expected
            assert managed[1].pid != victim_process.pid
            respawns_after = registry.counter_total("dsr_worker_respawns_total")
            assert respawns_after > respawns_before
        finally:
            registry.enabled = was_enabled
            engine.close()

    def test_killed_worker_leaks_no_segments(self, executor):
        before = _shm_entries()
        graph, engine = _engine(executor, seed=17)
        try:
            engine.run(ReachQuery((0, 1), (50, 90)))
            process = engine.cluster.executor._managed[0]
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5.0)
        finally:
            engine.close()
        assert _shm_entries() - before == set()


class TestNoResourceTrackerNoise:
    @pytest.mark.parametrize("executor", SHARDED)
    def test_subprocess_run_emits_no_tracker_warnings(self, executor):
        """Full engine lifecycle in a clean interpreter: stderr must not
        mention the resource tracker (a leaked or doubly released resource)."""
        script = textwrap.dedent(
            f"""
            from repro.api import DSRConfig, ReachQuery, open_engine
            from repro.graph import generators

            graph = generators.social_graph(200, avg_degree=4, seed=5)
            engine = open_engine(
                graph,
                DSRConfig(num_partitions=3, local_index="msbfs", executor={executor!r}),
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
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=180,
            env=_subprocess_env(),
        )
        assert completed.returncode == 0, completed.stderr
        assert "DONE" in completed.stdout
        assert "resource_tracker" not in completed.stderr, completed.stderr

    @pytest.mark.parametrize("executor", SHARDED)
    def test_subprocess_sigkill_midstream_leaves_no_workers(self, executor, tmp_path):
        """Kill a master without close(): no atexit hook runs, but the
        kernel closes the master's socketpair ends, every worker reads EOF
        and exits instead of lingering as an orphan."""
        script = textwrap.dedent(
            f"""
            import os, signal
            from repro.api import DSRConfig, ReachQuery, open_engine
            from repro.graph import generators

            graph = generators.social_graph(200, avg_degree=4, seed=5)
            engine = open_engine(
                graph,
                DSRConfig(num_partitions=3, local_index="msbfs", executor={executor!r}),
            )
            engine.run(ReachQuery((0, 1, 2), (50, 100)))
            # A respawned worker must follow its master just the same.
            victim = engine.cluster.executor._managed[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            engine.run(ReachQuery((0, 1, 2), (50, 100)))
            pids = [process.pid for process in engine.cluster.executor._managed.values()]
            assert victim.pid not in pids
            print("PIDS", *pids, flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        # The workers inherit the master's stdout: a file, not a pipe, so a
        # regression that orphans them cannot hang the read below.
        output = tmp_path / "master.out"
        with open(output, "w") as stdout:
            completed = subprocess.run(
                [sys.executable, "-c", script],
                stdout=stdout,
                stderr=subprocess.STDOUT,
                timeout=120,
                env=_subprocess_env(),
            )
        assert completed.returncode == -signal.SIGKILL
        lines = [line for line in output.read_text().splitlines() if line.startswith("PIDS")]
        assert lines, output.read_text()
        pids = [int(pid) for pid in lines[0].split()[1:]]
        assert len(pids) == 3
        deadline = time.monotonic() + 10.0
        try:
            while time.monotonic() < deadline and any(_alive(pid) for pid in pids):
                time.sleep(0.1)
            assert [pid for pid in pids if _alive(pid)] == []
        finally:
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
