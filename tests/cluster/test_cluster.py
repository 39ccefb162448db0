"""Tests for the simulated cluster substrate (messages, network, phases)."""

import pytest

from repro.cluster.cluster import ClusterStats, PhaseTiming, SimulatedCluster
from repro.cluster.message import Message, payload_size
from repro.cluster.network import Network


class TestPayloadSize:
    def test_primitives(self):
        assert payload_size(None) == 1
        assert payload_size(True) == 1
        assert payload_size(7) == 4
        assert payload_size(3.5) == 8
        assert payload_size("abcd") == 5

    def test_containers_grow_with_content(self):
        assert payload_size([1, 2, 3]) > payload_size([1])
        assert payload_size({"a": 1}) > payload_size({})

    def test_nested_structures(self):
        nested = {"sources": [1, 2, 3], "handles": {4: [5, 6]}}
        assert payload_size(nested) > payload_size({"sources": [1, 2, 3]})

    def test_object_with_message_size_hook(self):
        class Sized:
            def message_size(self):
                return 123

        assert payload_size(Sized()) == 123

    def test_message_records_size(self):
        message = Message(source=0, destination=1, payload=[1, 2, 3])
        assert message.size_bytes == payload_size([1, 2, 3])


class TestNetwork:
    def test_send_and_deliver(self):
        network = Network()
        network.send(0, 1, "hello")
        network.send(0, 1, "world")
        messages = network.deliver(1)
        assert [m.payload for m in messages] == ["hello", "world"]
        assert network.deliver(1) == []

    def test_stats_accumulate(self):
        network = Network()
        network.send(0, 1, [1, 2, 3])
        network.send(1, 2, [4])
        network.complete_round()
        assert network.stats.messages_sent == 2
        assert network.stats.bytes_sent > 0
        assert network.stats.rounds == 1

    def test_pending_counts(self):
        network = Network()
        network.send(0, 1, "x")
        network.send(0, 2, "y")
        assert network.pending() == 2
        assert network.pending(1) == 1
        network.deliver(1)
        assert network.pending() == 1

    def test_reset_stats_keeps_inboxes(self):
        network = Network()
        network.send(0, 1, "x")
        network.reset_stats()
        assert network.stats.messages_sent == 0
        assert network.pending(1) == 1


class TestSimulatedCluster:
    def test_requires_workers(self):
        with pytest.raises(ValueError):
            SimulatedCluster(0)

    def test_run_phase_returns_per_worker_results(self):
        cluster = SimulatedCluster(3)
        results = cluster.run_phase("square", lambda rank: rank * rank)
        assert results == {0: 0, 1: 1, 2: 4}

    def test_phase_timings_recorded(self):
        cluster = SimulatedCluster(2)
        cluster.run_phase("noop", lambda rank: None)
        assert len(cluster.stats.phases) == 1
        assert cluster.stats.parallel_seconds >= 0
        assert cluster.stats.total_seconds >= cluster.stats.parallel_seconds

    def test_worker_subset(self):
        cluster = SimulatedCluster(4)
        results = cluster.run_phase("subset", lambda rank: rank, workers=[1, 3])
        assert set(results) == {1, 3}

    def test_parallel_execution_mode(self):
        # A parallel executor leaves closure phases alone: they still run at
        # the master, one timed entry per rank.
        cluster = SimulatedCluster(4, executor="processes")
        try:
            results = cluster.run_phase("echo", lambda rank: rank)
            assert results == {0: 0, 1: 1, 2: 2, 3: 3}
            assert set(cluster.stats.phases[-1].per_worker_seconds) == {0, 1, 2, 3}
        finally:
            cluster.close()

    def test_master_phase(self):
        cluster = SimulatedCluster(2)
        assert cluster.run_master("combine", lambda: 42) == 42
        assert cluster.stats.phases[-1].name == "combine"

    def test_snapshot_merges_network_stats(self):
        cluster = SimulatedCluster(2)
        cluster.send(0, 1, [1, 2])
        cluster.complete_round()
        snapshot = cluster.snapshot()
        assert snapshot["messages_sent"] == 1
        assert snapshot["rounds"] == 1
        assert "parallel_seconds" in snapshot

    def test_reset_stats(self):
        cluster = SimulatedCluster(2)
        cluster.send(0, 1, "x")
        cluster.run_phase("noop", lambda rank: None)
        cluster.reset_stats()
        assert cluster.snapshot()["messages_sent"] == 0
        assert cluster.stats.phases == []


class TestTimingModel:
    def test_parallel_time_is_max_of_workers(self):
        timing = PhaseTiming(name="x", per_worker_seconds={0: 0.1, 1: 0.5, 2: 0.2})
        assert timing.parallel_seconds == 0.5
        assert abs(timing.total_seconds - 0.8) < 1e-9

    def test_cluster_stats_sum_phases(self):
        stats = ClusterStats(
            phases=[
                PhaseTiming(name="a", per_worker_seconds={0: 0.1, 1: 0.3}),
                PhaseTiming(name="b", per_worker_seconds={0: 0.2}),
            ]
        )
        assert abs(stats.parallel_seconds - 0.5) < 1e-9
        assert abs(stats.total_seconds - 0.6) < 1e-9
