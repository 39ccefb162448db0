"""Tests for the concurrent serving layer and the blocking socket client."""

import random
import threading

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.core.engine import DSREngine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.service import (
    DSRAsyncServer,
    DSRClient,
    DSRService,
    ErrorResponse,
    QueryRequest,
    QueryResponse,
    ServiceOverloadedError,
    SnapshotRequest,
    StatsRequest,
    UpdateRequest,
)
from repro.service.protocol import pack_frame
from repro.service.server import ServiceMetrics
from tests.service.wire import exchange, raw_frame, read_frames


@pytest.fixture
def graph():
    return generators.social_graph(200, avg_degree=5, seed=3)


@pytest.fixture
def service(graph):
    engine = DSREngine(graph, DSRConfig(num_partitions=3, local_index="msbfs", seed=2))
    service = DSRService(engine, num_workers=3)
    yield service
    service.close()


class TestQueryServing:
    def test_answers_match_direct_engine(self, graph, service):
        vertices = sorted(graph.vertices())
        response = service.handle(QueryRequest(tuple(vertices[:7]), tuple(vertices[60:66])))
        assert isinstance(response, QueryResponse)
        assert response.pair_set == reachable_pairs(graph, vertices[:7], vertices[60:66])

    def test_unbuilt_engine_is_built_by_the_service(self, graph):
        engine = DSREngine(graph, DSRConfig(num_partitions=3, seed=2))
        assert not engine.is_built
        service = DSRService(engine, num_workers=1)
        assert engine.is_built
        service.close()

    def test_cache_hit_skips_engine_and_counts(self, graph, service):
        vertices = sorted(graph.vertices())
        request = QueryRequest(tuple(vertices[:5]), tuple(vertices[50:55]))
        first = service.handle(request)
        second = service.handle(request)
        assert not first.cached and second.cached
        assert second.pair_set == first.pair_set
        assert service.stats()["cache_hits"] == 1

    def test_use_cache_false_bypasses_cache(self, graph, service):
        vertices = sorted(graph.vertices())
        request = QueryRequest(
            tuple(vertices[:5]), tuple(vertices[50:55]), use_cache=False
        )
        assert not service.handle(request).cached
        assert not service.handle(request).cached
        assert service.stats()["cache_hits"] == 0

    def test_empty_query_short_circuits(self, service):
        response = service.handle(QueryRequest((), (1,)))
        assert response.pairs == () and response.num_batches == 0

    def test_unknown_vertex_becomes_error_response(self, service):
        response = service.handle(QueryRequest((10**9,), (0,)))
        assert isinstance(response, ErrorResponse)
        assert response.error == "ValueError"
        assert service.stats()["errors"] == 1

    def test_removed_batch_budget_option_is_rejected(self, graph):
        engine = DSREngine(graph, DSRConfig(num_partitions=3, seed=2))
        with pytest.raises(TypeError):
            DSRService(engine, num_workers=1, max_batch_pairs=50)


# (|S|, |T|) at and beyond the 4096-pair budget the planner used to cut
# requests at, the long axis on either side.
SINGLE_RUN_SHAPES = {
    4096: [(16, 256), (256, 16)],
    4097: [(17, 241), (241, 17)],
    16384: [(64, 256), (256, 64)],
    65536: [(64, 1024), (1024, 64)],
}


@pytest.fixture(scope="module")
def big_graph():
    return generators.web_graph(1100, avg_degree=4, seed=5)


@pytest.fixture(scope="module")
def big_oracle(big_graph):
    vertices = sorted(big_graph.vertices())
    oracle = {}
    for shapes in SINGLE_RUN_SHAPES.values():
        for num_sources, num_targets in shapes:
            sources, targets = vertices[:num_sources], vertices[-num_targets:]
            oracle[num_sources, num_targets] = (
                tuple(sources),
                tuple(targets),
                reachable_pairs(big_graph, sources, targets),
            )
    return oracle


@pytest.fixture(
    scope="module",
    params=[
        {"executor": "serial", "epoch_flush": "inline"},
        {"executor": "serial", "epoch_flush": "background"},
        {"executor": "processes", "epoch_flush": "inline"},
        {"executor": "processes", "epoch_flush": "background"},
    ],
    ids=[
        "serial-inline", "serial-background",
        "processes-inline", "processes-background",
    ],
)
def big_service(request, big_graph):
    engine = open_engine(
        big_graph.copy(),
        DSRConfig(num_partitions=3, seed=2, enable_backward=True, **request.param),
    )
    with DSRService(engine, num_workers=1, enable_cache=False) as service:
        yield service
    engine.close()


class TestOneEngineRunPerRequest:
    """Differential: a request of any size is one ``engine.run``."""

    @pytest.mark.parametrize("num_pairs", sorted(SINGLE_RUN_SHAPES))
    def test_large_query_is_one_exact_engine_run(
        self, big_service, big_oracle, num_pairs
    ):
        for shape in SINGLE_RUN_SHAPES[num_pairs]:
            sources, targets, expected = big_oracle[shape]
            assert len(sources) * len(targets) == num_pairs
            for direction in ("forward", "backward"):
                response = big_service.handle(
                    QueryRequest(sources, targets, direction=direction, trace=True)
                )
                assert response.pair_set == expected, (shape, direction)
                assert response.num_batches == 1
                assert response.direction == direction
                trace = response.query_trace
                direct = big_service.engine.run(
                    ReachQuery(sources, targets, direction=direction)
                )
                assert direct.pairs == expected
                assert response.messages_sent == direct.messages_sent
                assert response.bytes_sent == direct.bytes_sent
                # One run: its spans arrive unprefixed, each step once.
                assert {span.name for span in trace.spans} == {
                    "plan", "step1", "step1.shard", "step2_bridge",
                    "step3", "step3.shard", "materialise",
                }
                for once in ("step1", "step2_bridge", "step3"):
                    assert len([s for s in trace.spans if s.name == once]) == 1
                # Pairs materialise after step 1 and after step 3, and the
                # two spans count every answer pair exactly once.
                materialised = trace.find_all("materialise")
                assert len(materialised) == 2
                assert sum(s.attrs["pairs"] for s in materialised) == len(expected)


class TestConcurrentServing:
    def test_parallel_mixed_workload_is_exact(self, graph, service):
        vertices = sorted(graph.vertices())
        queries = [
            (vertices[i : i + 5], vertices[80 + i : 86 + i]) for i in range(12)
        ]
        futures = [
            service.submit(QueryRequest(tuple(sources), tuple(targets)))
            for sources, targets in queries
            for _ in range(3)
        ]
        # Interleave structural updates while queries are in flight.
        service.submit(UpdateRequest("insert-edge", vertices[0], vertices[-1])).result()
        service.submit(
            UpdateRequest("delete-edge", *next(iter(graph.edges())))
        ).result()
        for future in futures:
            assert not isinstance(future.result(), ErrorResponse)
        # Post-quiescence answers are exact against the updated graph.
        for sources, targets in queries:
            response = service.submit(
                QueryRequest(tuple(sources), tuple(targets))
            ).result()
            assert response.pair_set == reachable_pairs(graph, sources, targets)

    def test_many_threads_share_the_service(self, graph, service):
        vertices = sorted(graph.vertices())
        errors = []

        def client(offset):
            sources = vertices[offset : offset + 4]
            targets = vertices[120 + offset : 124 + offset]
            for _ in range(5):
                response = service.submit(
                    QueryRequest(tuple(sources), tuple(targets))
                ).result()
                if response.pair_set != reachable_pairs(graph, sources, targets):
                    errors.append(offset)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

    def test_admission_queue_rejects_when_full(self, graph):
        engine = DSREngine(graph, DSRConfig(num_partitions=3, seed=2))
        service = DSRService(engine, num_workers=1, max_queue_depth=1)
        vertices = sorted(graph.vertices())
        big = QueryRequest(tuple(vertices[:50]), tuple(vertices[50:150]), use_cache=False)
        accepted = []
        with pytest.raises(ServiceOverloadedError):
            for _ in range(200):  # the single slow worker cannot keep up
                accepted.append(service.submit(big))
        assert service.stats()["rejected"] >= 1
        for future in accepted:
            future.result()
        service.close()

    def test_submit_after_close_rejected(self, graph):
        engine = DSREngine(graph, DSRConfig(num_partitions=3, seed=2))
        service = DSRService(engine, num_workers=1)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(StatsRequest())


class TestStatsAndMetrics:
    def test_stats_response_shape(self, graph, service):
        vertices = sorted(graph.vertices())
        request = QueryRequest(tuple(vertices[:4]), tuple(vertices[40:44]))
        service.handle(request)
        service.handle(request)
        stats = service.handle(StatsRequest()).stats
        assert stats["queries"] == 2
        assert stats["cache_hit_rate"] == 0.5
        # Cache hits are accounted under their own kind: only the first call
        # actually ran the engine, the second was answered from the cache.
        assert stats["query_count"] == 1
        assert stats["query_cached_count"] == 1
        assert stats["query_p50_ms"] >= 0.0
        assert stats["query_cached_p50_ms"] >= 0.0
        assert stats["cache"]["hits"] == 1
        assert stats["workers"] == 3
        assert stats["maintenance"]["epoch"] == stats["epoch"]

    def test_snapshot_reports_cluster_counters(self, graph, service):
        vertices = sorted(graph.vertices())
        service.handle(
            QueryRequest(tuple(vertices[:4]), tuple(vertices[40:44]), use_cache=False)
        )
        snapshot = service.handle(SnapshotRequest()).snapshot
        assert {"messages_sent", "bytes_sent", "rounds"} <= set(snapshot)

    def test_percentiles_are_order_statistics(self):
        metrics = ServiceMetrics()
        for value in [0.01, 0.02, 0.03, 0.04, 0.10]:
            metrics.record("query", value)
        assert metrics.percentile("query", 50) == 0.03
        assert metrics.percentile("query", 99) == 0.10
        assert metrics.percentile("unseen", 50) == 0.0

    def test_update_metrics_recorded(self, graph, service):
        vertices = sorted(graph.vertices())
        service.handle(UpdateRequest("insert-edge", vertices[0], vertices[-1]))
        service.handle(UpdateRequest("flush"))
        assert service.stats()["updates"] == 2
        assert service.stats()["update_count"] == 2


class TestSocketTransport:
    def test_end_to_end_over_socket(self, graph, service):
        vertices = sorted(graph.vertices())
        with DSRAsyncServer(service) as server:
            host, port = server.address
            with DSRClient(host, port) as client:
                response = client.query(vertices[:6], vertices[60:66])
                assert response.pair_set == reachable_pairs(
                    graph, vertices[:6], vertices[60:66]
                )
                assert client.query(vertices[:6], vertices[60:66]).cached
                update = client.insert_edge(vertices[0], vertices[-1])
                assert update.op == "insert-edge"
                after = client.query(vertices[:6], vertices[60:66])
                assert not after.cached
                assert after.pair_set == reachable_pairs(
                    graph, vertices[:6], vertices[60:66]
                )
                stats = client.stats().stats
                assert stats["queries"] == 3
                assert client.snapshot().snapshot["rounds"] >= 0
                assert client.reconnects == 0
        assert service.stats()["requests"] == 4  # 3 queries + 1 update

    def test_multiple_concurrent_clients(self, graph, service):
        vertices = sorted(graph.vertices())
        with DSRAsyncServer(service) as server:
            host, port = server.address
            errors = []

            def run_client(offset):
                sources = vertices[offset : offset + 3]
                targets = vertices[90 + offset : 94 + offset]
                with DSRClient(host, port) as client:
                    for _ in range(4):
                        response = client.query(sources, targets)
                        if response.pair_set != reachable_pairs(graph, sources, targets):
                            errors.append(offset)

            threads = [threading.Thread(target=run_client, args=(i,)) for i in range(5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
        assert service.stats()["queries"] == 20

    def test_malformed_frame_gets_error_response(self, graph, service):
        import socket as socket_module

        with DSRAsyncServer(service) as server:
            with socket_module.create_connection(server.address, timeout=5.0) as raw:
                # A response message sent as a request is rejected with a
                # typed error and the connection lives on...
                raw.sendall(pack_frame(ErrorResponse("x", "y"), request_id=1))
                ((reply, _version, request_id),), _ = read_frames(raw, 1)
                assert isinstance(reply, ErrorResponse)
                assert (reply.error, request_id) == ("ProtocolError", 1)
                raw.sendall(pack_frame(StatsRequest(), request_id=2))
                ((reply, _version, request_id),), _ = read_frames(raw, 1)
                assert not isinstance(reply, ErrorResponse) and request_id == 2
                # ...while a frame that does not decode at all (unknown kind)
                # is answered once and the connection closed.
                raw.sendall(raw_frame({"kind": "teleport"}))
                ((reply, _version, _id),), closed = read_frames(raw)
                assert isinstance(reply, ErrorResponse)
                assert reply.error == "ProtocolError" and closed

    @pytest.mark.parametrize("version", [5, 6])
    def test_frame_with_removed_batch_budget_is_answered(
        self, graph, service, version
    ):
        """Peers of every live version may still send ``max_batch_pairs``."""
        vertices = sorted(graph.vertices())
        frame = raw_frame(
            {
                "kind": "query",
                "version": version,
                "sources": vertices[:4],
                "targets": vertices[60:64],
                "max_batch_pairs": 16,
            },
            version,
        )
        with DSRAsyncServer(service) as server:
            ((reply, reply_version, _id),), _ = exchange(
                server.address, frame, expect=1
            )
        assert not isinstance(reply, ErrorResponse), reply
        assert reply_version == version
        assert reply.num_batches == 1
        assert reply.pair_set == reachable_pairs(
            graph, vertices[:4], vertices[60:64]
        )


class TestFrameCap:
    """The frame reader must not buffer unbounded input."""

    def test_oversized_frame_gets_error_then_close(self, graph, service):
        import struct

        with DSRAsyncServer(service, max_frame_bytes=1024) as server:
            # One byte over the cap: refused from the header, the 8 KiB that
            # follow are never reassembled.
            frames, closed = exchange(
                server.address, struct.pack(">IB", 1025, 6) + b"x" * 8192
            )
        assert closed  # never another successful exchange
        ((reply, _version, _id),) = frames
        assert isinstance(reply, ErrorResponse)
        assert reply.error == "OversizedFrameError"

    def test_normal_frames_unaffected_by_cap(self, graph, service):
        vertices = sorted(graph.vertices())
        with DSRAsyncServer(service, max_frame_bytes=65536) as server:
            host, port = server.address
            with DSRClient(host, port) as client:
                response = client.query(vertices[:4], vertices[40:44])
                assert not isinstance(response, ErrorResponse)


class TestClientTimeoutsAndRetries:
    """Satellite fix: DSRClient gets socket timeouts + bounded reconnects."""

    def test_request_timeout_raises_not_hangs(self):
        import socket as socket_module

        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            client = DSRClient(host, port, request_timeout=0.3, retries=0)
            started = __import__("time").perf_counter()
            with pytest.raises(TimeoutError):
                client.stats()  # accepted but never answered
            elapsed = __import__("time").perf_counter() - started
            assert elapsed < 5.0
            client.close()
        finally:
            listener.close()

    def test_connect_timeout_to_dead_port_raises(self):
        import socket as socket_module

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ConnectionError):
            # The constructor connects eagerly, so refusal surfaces here.
            DSRClient(
                "127.0.0.1", dead_port,
                connect_timeout=0.3, retries=1, retry_backoff_seconds=0.01,
            )

    def test_reconnects_across_server_restart(self, graph, service):
        vertices = sorted(graph.vertices())
        first = DSRAsyncServer(service).start_in_thread()
        host, port = first.address
        client = DSRClient(host, port, retries=3, retry_backoff_seconds=0.05)
        try:
            response = client.query(vertices[:4], vertices[40:44])
            assert not isinstance(response, ErrorResponse)
            first.stop_from_thread()
            # Same port, fresh server: the client's next request sees a dead
            # socket, reconnects within its retry budget and succeeds.
            second = DSRAsyncServer(service, host=host, port=port).start_in_thread()
            try:
                after = client.query(vertices[:4], vertices[44:48])
                assert not isinstance(after, ErrorResponse)
                assert client.reconnects >= 1  # the restart forced a retry
            finally:
                second.stop_from_thread()
        finally:
            client.close()
            first.stop_from_thread()


class TestPipelinedRequests:
    """A client may write several requests before reading any reply."""

    def test_pipelined_requests_all_answered(self, graph, service):
        import socket as socket_module

        vertices = sorted(graph.vertices())
        expected = reachable_pairs(graph, vertices[:3], vertices[40:43])
        request = QueryRequest(tuple(vertices[:3]), tuple(vertices[40:43]))
        with DSRAsyncServer(service) as server:
            with socket_module.create_connection(server.address, timeout=10.0) as raw:
                # Burst of 4 up front, then lock-step: one new request per
                # reply received.
                raw.sendall(
                    b"".join(pack_frame(request, request_id=i) for i in range(4))
                )
                buffer, seen = bytearray(), set()
                for received in range(1, 11):
                    ((reply, _version, request_id),), _ = read_frames(raw, 1, buffer)
                    assert reply.pair_set == expected, reply
                    seen.add(request_id)
                    if received <= 6:
                        raw.sendall(pack_frame(request, request_id=3 + received))
        assert seen == set(range(10))
        assert service.stats()["queries"] == 10


def structural_edge(graph, seed=0):
    """An absent edge whose insert adds at least one reachable pair."""
    vertices = sorted(graph.vertices())
    candidates = [(u, v) for u in vertices for v in vertices if u != v]
    random.Random(seed).shuffle(candidates)
    return next(
        (u, v) for u, v in candidates if not reachable_pairs(graph, [u], [v])
    )


class TestUpdatesWhileServing:
    """Writes through the service under both epoch-flush modes."""

    @pytest.fixture
    def sparse(self):
        # About half of all ordered pairs unreachable: inserts are structural.
        return generators.random_digraph(150, 240, seed=8)

    @pytest.fixture(params=["inline", "background"])
    def served(self, request, sparse):
        engine = open_engine(
            sparse.copy(),
            DSRConfig(num_partitions=3, seed=2, epoch_flush=request.param),
        )
        with DSRService(engine, num_workers=3) as service:
            yield service
        engine.close()

    def test_structural_update_invalidates_the_cache(self, sparse, served):
        u, v = structural_edge(sparse)
        request = QueryRequest((u,), (v,))
        assert served.handle(request).pairs == ()
        assert served.handle(request).cached
        update = served.handle(UpdateRequest("insert-edge", u, v))
        assert update.structural_change
        served.handle(UpdateRequest("flush"))
        answer = served.handle(request)
        assert not answer.cached
        assert answer.pair_set == {(u, v)}

    def test_stats_epoch_tracks_the_engine(self, sparse, served):
        before = served.stats()
        assert before["epoch"] == served.engine.epoch
        assert before["epoch_flush"] == served.engine.epoch_flush
        served.handle(UpdateRequest("insert-edge", *structural_edge(sparse)))
        served.handle(UpdateRequest("flush"))
        after = served.stats()
        assert after["epoch"] == served.engine.epoch > before["epoch"]
        assert after["pending_maintenance"] is False
        assert after["maintenance_error"] is None

    def test_reads_see_one_graph_or_the_other_while_updates_flush(
        self, sparse, served
    ):
        u, v = structural_edge(sparse, seed=1)
        vertices = sorted(sparse.vertices())
        sources, targets = tuple(vertices[:12] + [u]), tuple(vertices[-12:] + [v])
        without = reachable_pairs(sparse, sources, targets)
        with_edge = sparse.copy()
        with_edge.add_edge(u, v)
        with_ = reachable_pairs(with_edge, sources, targets)
        assert without != with_
        errors, stop = [], threading.Event()

        def reader(use_cache):
            while not stop.is_set():
                response = served.handle(
                    QueryRequest(sources, targets, use_cache=use_cache)
                )
                if isinstance(response, ErrorResponse) or response.pair_set not in (
                    without, with_,
                ):
                    errors.append(response)
                    return

        threads = [
            threading.Thread(target=reader, args=(use_cache,))
            for use_cache in (False, False, True)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(4):
                served.handle(UpdateRequest("insert-edge", u, v))
                served.handle(UpdateRequest("flush"))
                served.handle(UpdateRequest("delete-edge", u, v))
                served.handle(UpdateRequest("flush"))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60.0)
        assert not errors, errors[:3]
        final = served.handle(QueryRequest(sources, targets, use_cache=False))
        assert final.pair_set == without

    def test_vertex_updates_round_trip(self, sparse, served):
        vertices = sorted(sparse.vertices())
        head, tail = vertices[0], vertices[-1]
        inserted = served.handle(UpdateRequest("insert-vertex"))
        new_vertex = inserted.vertex
        assert new_vertex is not None and new_vertex not in vertices
        served.handle(UpdateRequest("insert-edge", head, new_vertex))
        served.handle(UpdateRequest("insert-edge", new_vertex, tail))
        served.handle(UpdateRequest("flush"))
        through = served.handle(QueryRequest((head,), (new_vertex, tail)))
        assert through.pair_set == {(head, new_vertex), (head, tail)}
        served.handle(UpdateRequest("delete-vertex", new_vertex))
        served.handle(UpdateRequest("flush"))
        after = served.handle(QueryRequest((head,), (tail,)))
        assert after.pair_set == reachable_pairs(sparse, [head], [tail])
