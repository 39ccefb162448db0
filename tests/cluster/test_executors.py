"""Tests for the pluggable worker executors and the sharded cluster API.

The executor matrix honours ``REPRO_TEST_EXECUTORS`` (comma-separated subset
of ``serial,processes,tcp``) so CI can re-run this module pinned to one
backend — e.g. the ``executor=processes`` matrix job.
"""

import os
import threading

import pytest

from repro.cluster.cluster import ClusterStats, SimulatedCluster
from repro.cluster.executors import (
    EXECUTOR_NAMES,
    ShardTaskError,
    StaleEpochError,
    make_executor,
    register_shard_loader,
    register_shard_task,
)
from repro.cluster.network import Network, NetworkStats

EXECUTORS = tuple(
    name.strip()
    for name in os.environ.get(
        "REPRO_TEST_EXECUTORS", ",".join(EXECUTOR_NAMES)
    ).split(",")
    if name.strip()
)


# Module-level test tasks: worker processes inherit these via fork, and the
# serial executor reads the same registry directly.
@register_shard_loader("test.load")
def _load(blob):
    return dict(blob)


@register_shard_task("test.scale")
def _scale(shard, payload):
    return shard["factor"] * payload


@register_shard_task("test.epoch")
def _epoch(shard, payload):
    return shard["epoch"]


@register_shard_task("test.boom")
def _boom(shard, payload):
    raise ValueError("intentional")


def _hydrated_cluster(executor, num_workers=3, epoch=0):
    cluster = SimulatedCluster(num_workers, executor=executor)
    blobs = {
        rank: {"factor": rank + 1, "epoch": epoch} for rank in range(num_workers)
    }
    cluster.hydrate_shards(epoch, blobs, "test.load")
    return cluster


class TestFactory:
    def test_all_names_construct(self):
        for name in EXECUTOR_NAMES:
            executor = make_executor(name)
            assert executor.name == name
            executor.close()

    def test_processes_refuses_worker_hosts(self):
        from repro.cluster.remote import ProcessExecutor

        with pytest.raises(ValueError, match="worker_hosts needs the tcp executor"):
            ProcessExecutor(worker_hosts=["127.0.0.1:1"])
        ProcessExecutor(connect_timeout=1.0).close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("gpu")

    def test_default_is_serial(self):
        cluster = SimulatedCluster(2)
        assert cluster.executor.name == "serial"
        cluster.close()


@pytest.mark.parametrize("executor", EXECUTORS)
class TestShardPhases:
    def test_shard_task_runs_per_rank(self, executor):
        cluster = _hydrated_cluster(executor)
        results = cluster.run_shard_phase(
            "scale", "test.scale", {0: 10, 1: 10, 2: 10}, epoch=0
        )
        assert results == {0: 10, 1: 20, 2: 30}
        cluster.close()

    def test_payload_subset_of_ranks(self, executor):
        cluster = _hydrated_cluster(executor)
        results = cluster.run_shard_phase("scale", "test.scale", {2: 5}, epoch=0)
        assert results == {2: 15}
        cluster.close()

    def test_stale_epoch_raises(self, executor):
        cluster = _hydrated_cluster(executor, epoch=4)
        with pytest.raises(StaleEpochError):
            cluster.run_shard_phase("epoch", "test.epoch", {0: None}, epoch=3)
        cluster.close()

    def test_retired_epoch_raises_newer_survives(self, executor):
        cluster = _hydrated_cluster(executor, epoch=0)
        # Hydrate epoch 2 and retire everything below epoch 1.
        cluster.hydrate_shards(
            2,
            {rank: {"factor": 1, "epoch": 2} for rank in range(3)},
            "test.load",
            retire_below=1,
        )
        with pytest.raises(StaleEpochError):
            cluster.run_shard_phase("epoch", "test.epoch", {0: None}, epoch=0)
        assert cluster.run_shard_phase("epoch", "test.epoch", {1: None}, epoch=2) == {1: 2}
        cluster.close()

    def test_timings_recorded_with_real_seconds(self, executor):
        cluster = _hydrated_cluster(executor)
        cluster.run_shard_phase("scale", "test.scale", {0: 1, 1: 1}, epoch=0)
        phase = cluster.stats.phases[-1]
        assert phase.name == "scale"
        assert set(phase.per_worker_seconds) == {0, 1}
        assert phase.real_seconds >= 0.0
        assert cluster.snapshot()["real_seconds"] >= 0.0
        cluster.close()


@pytest.mark.parametrize("executor", EXECUTORS)
class TestClosurePhases:
    """Closure phases never reach the executor, whichever one is configured."""

    def test_closures_run_on_the_calling_thread(self, executor):
        cluster = SimulatedCluster(3, executor=executor)
        try:
            caller = threading.get_ident()
            idents = cluster.run_phase("ident", lambda rank: threading.get_ident())
            assert idents == {0: caller, 1: caller, 2: caller}
            phase = cluster.stats.phases[-1]
            assert phase.name == "ident"
            assert set(phase.per_worker_seconds) == {0, 1, 2}
            assert phase.real_seconds >= max(phase.per_worker_seconds.values())
        finally:
            cluster.close()

    def test_private_stats_take_the_timing_record(self, executor):
        cluster = SimulatedCluster(3, executor=executor)
        try:
            private = ClusterStats()
            cluster.run_phase("mine", lambda rank: rank, workers=[0, 2], stats=private)
            assert [phase.name for phase in private.phases] == ["mine"]
            assert set(private.phases[0].per_worker_seconds) == {0, 2}
            assert cluster.stats.phases == []
        finally:
            cluster.close()

    def test_executor_contract_has_no_closure_entry_point(self, executor):
        backend = make_executor(executor)
        try:
            assert not hasattr(backend, "run_phase")
            assert not hasattr(backend, "supports_closures")
            assert callable(backend.run_shard_phase)
        finally:
            backend.close()


@pytest.mark.parametrize("executor", ["processes", "tcp"])
class TestRemoteExecutors:
    def test_task_error_carries_remote_traceback(self, executor):
        cluster = _hydrated_cluster(executor)
        with pytest.raises(ShardTaskError, match="intentional"):
            cluster.run_shard_phase("boom", "test.boom", {0: None}, epoch=0)
        cluster.close()

    def test_closure_phases_fall_back_to_master(self, executor):
        # Closures never reach an executor: run_phase runs them at the
        # master, so index builds run on any executor.
        cluster = SimulatedCluster(3, executor=executor)
        assert cluster.run_phase("square", lambda rank: rank * rank) == {0: 0, 1: 1, 2: 4}
        cluster.close()

    def test_workers_hydrate_once_not_per_phase(self, executor):
        cluster = _hydrated_cluster(executor)
        for _ in range(5):
            assert cluster.run_shard_phase(
                "scale", "test.scale", {0: 2, 1: 2, 2: 2}, epoch=0
            ) == {0: 2, 1: 4, 2: 6}
        cluster.close()

    def test_close_is_idempotent(self, executor):
        backend = make_executor(executor)
        backend.start(2)
        backend.close()
        backend.close()

    def test_concurrent_shard_phases_from_many_threads(self, executor):
        cluster = _hydrated_cluster(executor, num_workers=2)
        errors = []

        def worker():
            try:
                for _ in range(10):
                    result = cluster.run_shard_phase(
                        "scale", "test.scale", {0: 3, 1: 3}, epoch=0
                    )
                    assert result == {0: 3, 1: 6}
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        cluster.close()


class TestNetworkConcurrency:
    """Satellite fix: counters must be exact under concurrent senders."""

    def test_concurrent_sends_never_lose_increments(self):
        network = Network()
        sends_per_thread = 300
        num_threads = 8

        def blast(rank):
            for i in range(sends_per_thread):
                network.send(rank, (rank + 1) % num_threads, [i])

        threads = [
            threading.Thread(target=blast, args=(rank,)) for rank in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert network.stats.messages_sent == sends_per_thread * num_threads
        assert network.pending() == sends_per_thread * num_threads
        expected_bytes = sum(
            m.size_bytes for rank in range(num_threads) for m in network.deliver(rank)
        )
        assert network.stats.bytes_sent == expected_bytes

    def test_concurrent_rounds_counted_exactly(self):
        network = Network()
        threads = [
            threading.Thread(target=lambda: [network.complete_round() for _ in range(100)])
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert network.stats.rounds == 400

    def test_absorb_merges_under_lock(self):
        network = Network()
        private = NetworkStats(messages_sent=3, bytes_sent=120, rounds=1)

        def absorb_many():
            for _ in range(100):
                network.absorb(private)

        threads = [threading.Thread(target=absorb_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert network.stats.messages_sent == 3 * 400
        assert network.stats.bytes_sent == 120 * 400
        assert network.stats.rounds == 400

