"""Tests for the remote executor: WorkerHost + TcpExecutor over sockets.

The generic executor contract (shard phases, stale epochs, retirement) is
already covered for ``processes`` and ``tcp`` by the matrix in
``test_executors.py``; this module exercises external worker hosts, the
rank→host mapping, kill/respawn with hydration replay and worker addresses
on both remote names, remote tracebacks, and full engine parity against the
serial executor.
"""

import os
import signal
import time

import pytest

from repro.api import DSRConfig, ReachQuery
from repro.cluster.cluster import SimulatedCluster
from repro.cluster.executors import (
    ShardTaskError,
    StaleEpochError,
    make_executor,
    register_shard_loader,
    register_shard_task,
)
from repro.cluster.remote import (
    TcpExecutor,
    WorkerHost,
    WorkerTransportError,
    parse_host_port,
)
from repro.core.engine import DSREngine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.obs import use_registry


# Module-level tasks: managed hosts inherit these via fork, and in-process
# WorkerHosts read the same registry directly.
@register_shard_loader("tcptest.load")
def _load(blob):
    return dict(blob)


@register_shard_task("tcptest.scale")
def _scale(shard, payload):
    return shard["factor"] * payload


@register_shard_task("tcptest.rank_epoch")
def _rank_epoch(shard, payload):
    return (shard["rank"], shard["epoch"])


@register_shard_task("tcptest.boom")
def _boom(shard, payload):
    raise ValueError("intentional tcp failure")


def _blobs(num_workers, epoch=0):
    return {
        rank: {"factor": rank + 1, "rank": rank, "epoch": epoch}
        for rank in range(num_workers)
    }


class TestParseHostPort:
    def test_valid_specs(self):
        assert parse_host_port("127.0.0.1:8000") == ("127.0.0.1", 8000)
        assert parse_host_port("worker-3.internal:9") == ("worker-3.internal", 9)

    @pytest.mark.parametrize("bad", ["nohost", ":123", "host:", "host:abc", ""])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError, match="host:port"):
            parse_host_port(bad)


class TestExternalHosts:
    def test_two_hosts_serve_four_ranks_modulo(self):
        with WorkerHost(collect_deltas=False) as host_a, WorkerHost(
            collect_deltas=False
        ) as host_b:
            executor = TcpExecutor(
                worker_hosts=[
                    f"{host_a.address[0]}:{host_a.address[1]}",
                    f"{host_b.address[0]}:{host_b.address[1]}",
                ]
            )
            cluster = SimulatedCluster(4, executor=executor)
            try:
                cluster.hydrate_shards(0, _blobs(4), "tcptest.load")
                results = cluster.run_shard_phase(
                    "probe", "tcptest.rank_epoch", {r: None for r in range(4)}, epoch=0
                )
                assert results == {r: (r, 0) for r in range(4)}
                # rank r lives on hosts[r % 2]: each host holds two ranks.
                assert sorted(host_a.epochs_held) == [0, 2]
                assert sorted(host_b.epochs_held) == [1, 3]
            finally:
                cluster.close()
            # Departing clients must not stop a shared external host.
            assert not host_a.wait(timeout=0.0)

    def test_stale_epoch_and_remote_traceback(self):
        with WorkerHost(collect_deltas=False) as host:
            executor = TcpExecutor(worker_hosts=[host.address])
            cluster = SimulatedCluster(2, executor=executor)
            try:
                cluster.hydrate_shards(3, _blobs(2, epoch=3), "tcptest.load")
                with pytest.raises(StaleEpochError):
                    cluster.run_shard_phase(
                        "probe", "tcptest.rank_epoch", {0: None}, epoch=2
                    )
                with pytest.raises(ShardTaskError, match="intentional tcp failure"):
                    cluster.run_shard_phase(
                        "boom", "tcptest.boom", {1: None}, epoch=3
                    )
            finally:
                cluster.close()

    def test_restarted_host_rehydrated_by_replay(self):
        host = WorkerHost(collect_deltas=False).start()
        hold_host, port = host.address
        executor = TcpExecutor(
            worker_hosts=[host.address], reconnect_backoff_seconds=0.01
        )
        cluster = SimulatedCluster(2, executor=executor)
        try:
            cluster.hydrate_shards(0, _blobs(2), "tcptest.load")
            assert cluster.run_shard_phase(
                "scale", "tcptest.scale", {0: 10, 1: 10}, epoch=0
            ) == {0: 10, 1: 20}
            # Kill the external host mid-epoch; bring a fresh, EMPTY one up
            # on the same port.
            host.stop()
            host = WorkerHost(host=hold_host, port=port, collect_deltas=False).start()
            assert host.epochs_held == {}
            # The executor reconnects and replays the cached hydrations, so
            # the next phase sees the same shards at the same epoch.
            assert cluster.run_shard_phase(
                "scale", "tcptest.scale", {0: 7, 1: 7}, epoch=0
            ) == {0: 7, 1: 14}
            assert sorted(host.epochs_held) == [0, 1]
        finally:
            cluster.close()
            host.stop()

    def test_unreachable_host_raises_transport_error(self):
        # A port nothing listens on: bind-then-close reserves a dead one.
        import socket as socket_module

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        executor = TcpExecutor(
            worker_hosts=[("127.0.0.1", dead_port)],
            connect_timeout=0.2,
            reconnect_attempts=2,
            reconnect_backoff_seconds=0.01,
        )
        executor.start(1)
        with pytest.raises((WorkerTransportError, ConnectionError)):
            executor.hydrate(0, 0, {"factor": 1}, "tcptest.load")
        executor.close()


class TestManagedFleet:
    @pytest.mark.parametrize("name", ["processes", "tcp"])
    def test_killed_host_respawned_with_hydration_replay(self, name):
        with use_registry() as registry:
            cluster = SimulatedCluster(2, executor=name)
            try:
                executor = cluster.executor
                cluster.hydrate_shards(0, _blobs(2), "tcptest.load")
                assert cluster.run_shard_phase(
                    "scale", "tcptest.scale", {0: 5, 1: 5}, epoch=0
                ) == {0: 5, 1: 10}
                assert registry.counter_total("dsr_worker_respawns_total") == 0
                victim = executor._managed[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=5.0)
                # The next phase hits a dead socket: the executor respawns
                # the worker, replays hydration for epoch 0 and retries
                # transparently.
                assert cluster.run_shard_phase(
                    "scale", "tcptest.scale", {0: 4, 1: 4}, epoch=0
                ) == {0: 4, 1: 8}
                assert executor._managed[0].pid != victim.pid
                # One forked replacement, one re-opened link.
                assert registry.counter_total("dsr_worker_respawns_total") == 1
                assert registry.counter_total("dsr_worker_reconnects_total") == 1
            finally:
                cluster.close()

    @pytest.mark.parametrize("name", ["processes", "tcp"])
    def test_worker_addresses(self, name):
        executor = make_executor(name)
        executor.start(2)
        try:
            executor.hydrate_all(0, _blobs(2), "tcptest.load")
            addresses = executor.worker_addresses
            if name == "tcp":
                assert sorted(addresses) == [0, 1]
                assert all(port > 0 for _host, port in addresses.values())
            else:  # socketpair children listen on no port
                assert addresses == {}
        finally:
            executor.close()

    def test_close_is_idempotent_and_stops_fleet(self):
        executor = TcpExecutor()
        executor.start(2)
        processes = list(executor._managed.values())
        executor.close()
        executor.close()
        deadline = time.time() + 5.0
        for process in processes:
            process.join(timeout=max(0.0, deadline - time.time()))
            assert not process.is_alive()


class TestEngineParity:
    """The acceptance bar: answers, message counts and byte counts over tcp
    must be identical to the serial executor, across updates/epochs too."""

    @pytest.fixture
    def graph(self):
        return generators.social_graph(150, avg_degree=4, seed=5)

    def _engines(self, graph, **tcp_kwargs):
        serial = DSREngine.from_config(
            graph.copy(), DSRConfig(num_partitions=3, local_index="msbfs", seed=2)
        )
        tcp = DSREngine.from_config(
            graph.copy(),
            DSRConfig(
                num_partitions=3, local_index="msbfs", seed=2,
                executor="tcp", **tcp_kwargs,
            ),
        )
        serial.build_index()
        tcp.build_index()
        return serial, tcp

    def test_answers_and_costs_match_serial(self, graph):
        serial, tcp = self._engines(graph)
        try:
            vertices = sorted(graph.vertices())
            for offset in (0, 20, 40):
                query = ReachQuery(
                    tuple(vertices[offset : offset + 6]),
                    tuple(vertices[100 + offset : 106 + offset]),
                )
                a = serial.run(query)
                b = tcp.run(query)
                assert set(b.pairs) == set(a.pairs)
                assert b.messages_sent == a.messages_sent
                assert b.bytes_sent == a.bytes_sent
        finally:
            serial.close()
            tcp.close()

    def test_updates_flush_and_requery_match(self, graph):
        serial, tcp = self._engines(graph)
        try:
            vertices = sorted(graph.vertices())
            for engine in (serial, tcp):
                engine.insert_edge(vertices[0], vertices[-1])
                engine.delete_edge(*next(iter(graph.edges())))
                engine.flush_updates()
            query = ReachQuery(tuple(vertices[:8]), tuple(vertices[90:98]))
            a, b = serial.run(query), tcp.run(query)
            assert set(b.pairs) == set(a.pairs)
            assert b.messages_sent == a.messages_sent
            # The flush moved both engines to a new epoch; tcp rehydrated its
            # hosts over the wire to get there.
            assert set(b.pairs) == reachable_pairs(
                serial.graph, vertices[:8], vertices[90:98]
            )
        finally:
            serial.close()
            tcp.close()

    def test_external_hosts_via_config(self, graph):
        with WorkerHost(collect_deltas=False) as host_a, WorkerHost(
            collect_deltas=False
        ) as host_b:
            hosts = [
                f"{host_a.address[0]}:{host_a.address[1]}",
                f"{host_b.address[0]}:{host_b.address[1]}",
            ]
            serial, tcp = self._engines(graph, worker_hosts=hosts)
            try:
                vertices = sorted(graph.vertices())
                query = ReachQuery(tuple(vertices[:6]), tuple(vertices[80:86]))
                assert set(tcp.run(query).pairs) == set(serial.run(query).pairs)
                # Both external hosts actually hold shards (3 ranks % 2 hosts).
                assert host_a.epochs_held and host_b.epochs_held
            finally:
                serial.close()
                tcp.close()
