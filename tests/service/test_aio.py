"""Tests for the asyncio binary front door — the one serving edge.

Covers the framing end to end (multiplexed async clients, the blocking
client, v5 peers answered at v5), what happens to peers that do not speak
it (retired versions, newline-JSON text, hostile frames: one typed error,
connection closed, neighbours unaffected), oversized-frame handling,
watermark backpressure, per-tenant rate limiting and tenant SLO stats.
"""

import asyncio
import json
import struct
import threading
import time

import pytest

from repro.api import DSRConfig
from repro.core.engine import DSREngine
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.service import (
    DSRAsyncClient,
    DSRAsyncServer,
    DSRClient,
    DSRService,
    ErrorResponse,
    QueryRequest,
    QueryResponse,
    StatsResponse,
    TokenBucket,
)
from repro.obs import use_registry
from repro.service.protocol import (
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    ProtocolError,
    StatsRequest,
    pack_frame,
)
from tests.service.wire import exchange, raw_frame


@pytest.fixture
def graph():
    return generators.social_graph(200, avg_degree=5, seed=3)


@pytest.fixture
def service(graph):
    engine = DSREngine(graph, DSRConfig(num_partitions=3, local_index="msbfs", seed=2))
    service = DSRService(engine, num_workers=3)
    yield service
    service.close()


class TestTokenBucket:
    def test_burst_exhausts_then_denies(self):
        bucket = TokenBucket(rate=1000.0, burst=3)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]

    def test_refill_restores_tokens(self):
        bucket = TokenBucket(rate=200.0, burst=1)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        time.sleep(0.05)  # 200/s refills one token in 5ms
        assert bucket.try_acquire()

    def test_rejects_non_positive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=-1)


class TestBinaryTransport:
    def test_query_update_stats_round_trip(self, graph, service):
        vertices = sorted(graph.vertices())

        async def drive(host, port):
            async with DSRAsyncClient(host, port) as client:
                first = await client.query(vertices[:6], vertices[60:66])
                update = await client.update("insert-edge", vertices[0], vertices[-1])
                second = await client.query(
                    vertices[:6], vertices[60:66], use_cache=False
                )
                stats = await client.stats()
                return first, update, second, stats

        with DSRAsyncServer(service) as server:
            host, port = server.address
            first, update, second, stats = asyncio.run(drive(host, port))
        assert first.pair_set == reachable_pairs(graph, vertices[:6], vertices[60:66])
        assert update.op == "insert-edge"
        # The re-query reflects the applied update (graph mutated in place).
        assert second.pair_set == reachable_pairs(graph, vertices[:6], vertices[60:66])
        assert isinstance(stats, StatsResponse)
        assert stats.stats["async"]["connections"] == 1
        assert stats.stats["async"]["high_watermark"] >= 1

    def test_multiplexed_requests_resolve_by_id(self, graph, service):
        vertices = sorted(graph.vertices())
        queries = [
            (vertices[i : i + 4], vertices[70 + 2 * i : 75 + 2 * i])
            for i in range(24)
        ]

        async def drive(host, port):
            async with DSRAsyncClient(host, port) as client:
                return await asyncio.gather(
                    *(
                        client.query(sources, targets, use_cache=False)
                        for sources, targets in queries
                    )
                )

        with DSRAsyncServer(service) as server:
            host, port = server.address
            responses = asyncio.run(drive(host, port))
        # 24 requests in flight on ONE connection; every response must have
        # been matched to its own request id.
        for (sources, targets), response in zip(queries, responses):
            assert response.pair_set == reachable_pairs(graph, sources, targets)

    def test_many_concurrent_connections(self, graph, service):
        vertices = sorted(graph.vertices())

        async def one_client(host, port, offset):
            sources = vertices[offset : offset + 3]
            targets = vertices[90 + offset : 94 + offset]
            async with DSRAsyncClient(host, port) as client:
                response = await client.query(sources, targets)
                return response.pair_set == reachable_pairs(graph, sources, targets)

        async def drive(host, port):
            return await asyncio.gather(
                *(one_client(host, port, i) for i in range(16))
            )

        with DSRAsyncServer(service) as server:
            host, port = server.address
            results = asyncio.run(drive(host, port))
            # All connections came and went; the gauge is back to zero.
            assert server.metrics.counter_value("dsr_conn_active") == 0.0
        assert all(results)


class TestBlockingClient:
    def test_blocking_client_speaks_binary_frames(self, graph, service):
        vertices = sorted(graph.vertices())
        with DSRAsyncServer(service) as server:
            host, port = server.address
            with DSRClient(host, port) as client:
                response = client.query(vertices[:6], vertices[60:66])
                assert response.pair_set == reachable_pairs(
                    graph, vertices[:6], vertices[60:66]
                )
                assert client.query(vertices[:6], vertices[60:66]).cached
                assert client.stats().stats["queries"] == 2

    def test_every_request_kind_matches_the_oracle(self, graph, service):
        vertices = sorted(graph.vertices())
        sources, targets = vertices[:6], vertices[60:66]
        with DSRAsyncServer(service) as server:
            with DSRClient(*server.address) as client:
                assert client.query(sources, targets).pair_set == reachable_pairs(
                    graph, sources, targets
                )
                update = client.insert_edge(vertices[0], vertices[-1])
                assert update.op == "insert-edge"
                assert client.flush().op == "flush"
                traced = client.query(sources, targets, trace=True)
                assert traced.query_trace is not None and not traced.cached
                bounded = client.query(
                    sources, targets, use_cache=False, deadline_ms=30_000.0
                )
                # The graph object was mutated in place by the update.
                expected = reachable_pairs(graph, sources, targets)
                assert traced.pair_set == bounded.pair_set == expected
                late = client.query(
                    sources, targets, use_cache=False, deadline_ms=1e-6
                )
                assert isinstance(late, ErrorResponse)
                assert late.error == "DeadlineExceededError"
                stats = client.stats().stats
                assert stats["errors"] == 1 and stats["async"]["connections"] == 1
                assert client.snapshot().snapshot["rounds"] >= 0
                assert "dsr_service_requests_total" in client.metrics().text


class TestVersions:
    def test_v5_peer_is_answered_at_v5(self, graph, service):
        vertices = sorted(graph.vertices())
        request = QueryRequest(
            tuple(vertices[:3]), tuple(vertices[40:43]),
            trace=True, tenant="crm", deadline_ms=30_000.0,
        )
        frame = pack_frame(request, version=MIN_PROTOCOL_VERSION, request_id=3)
        assert b"deadline_ms" not in frame  # a v5 peer cannot say it
        with DSRAsyncServer(service) as server:
            (reply,), _closed = exchange(server.address, frame, expect=1)
            assert server.tenant_percentile("crm", 50) >= 0.0
        message, version, request_id = reply
        assert (version, request_id) == (MIN_PROTOCOL_VERSION, 3)
        assert message.trace is not None
        assert message.pair_set == reachable_pairs(
            graph, vertices[:3], vertices[40:43]
        )

    @pytest.mark.parametrize("version", [2, 3, 4])
    @pytest.mark.parametrize("framing", ["line", "frame"])
    def test_retired_peer_gets_one_typed_error_and_a_closed_connection(
        self, service, framing, version
    ):
        payload = {"kind": "stats", "version": version}
        if framing == "line":
            data = (json.dumps(payload) + "\n").encode("utf-8")
            error = "OversizedFrameError"  # '{"ki' read as a length
        else:
            data = raw_frame(payload, version)
            error = "ProtocolError"
        with DSRAsyncServer(service) as server:
            frames, closed = exchange(server.address, data, timeout=2.0)
        assert closed
        ((message, reply_version, request_id),) = frames
        assert isinstance(message, ErrorResponse) and message.error == error
        assert (reply_version, request_id) == (PROTOCOL_VERSION, None)

    def test_body_version_below_the_header_is_answered_not_hung(
        self, graph, service
    ):
        """Regression: header byte 6, body ``"version": 2`` used to be run
        and then never answered (the reply could not be packed at v2)."""
        vertices = sorted(graph.vertices())
        frame = raw_frame(
            {"kind": "query", "version": 2, "id": 1,
             "sources": vertices[:2], "targets": vertices[40:42]},
            PROTOCOL_VERSION,
        )
        with DSRAsyncServer(service) as server:
            with DSRClient(*server.address) as neighbour:
                started = time.perf_counter()
                frames, closed = exchange(server.address, frame, timeout=1.0)
                assert time.perf_counter() - started < 1.0
                # The neighbouring connection never noticed.
                assert neighbour.query(
                    vertices[:2], vertices[40:42]
                ).pair_set == reachable_pairs(graph, vertices[:2], vertices[40:42])
        assert closed
        ((message, _version, _id),) = frames
        assert isinstance(message, ErrorResponse)
        assert message.error == "ProtocolError" and "version" in message.message
        assert service.stats()["queries"] == 1  # only the neighbour's


class TestMultiplexing:
    def test_pipelined_hit_and_miss_are_matched_by_id(self, graph, service):
        # Two requests in ONE write, the first a cache miss (goes to a
        # worker) and the second a hit (answered on the loop): whichever
        # reply lands first, each carries its own request's id.
        vertices = sorted(graph.vertices())
        hot = QueryRequest(tuple(vertices[:4]), tuple(vertices[40:44]))
        cold = QueryRequest(
            tuple(vertices[:4]), tuple(vertices[50:54]), use_cache=False
        )
        cold_pairs = reachable_pairs(graph, vertices[:4], vertices[50:54])
        hot_pairs = reachable_pairs(graph, vertices[:4], vertices[40:44])
        assert cold_pairs != hot_pairs  # else a swap would be invisible
        with DSRAsyncServer(service) as server:
            exchange(server.address, pack_frame(hot), expect=1)  # prime
            batch = pack_frame(cold, request_id=1) + pack_frame(hot, request_id=2)
            frames, _closed = exchange(server.address, batch, expect=2)
        by_id = {request_id: message for message, _version, request_id in frames}
        assert by_id[1].pair_set == cold_pairs and not by_id[1].cached
        assert by_id[2].pair_set == hot_pairs and by_id[2].cached

class TestRequestIds:
    @pytest.mark.parametrize("bad_id", [[1, 2], {"a": 1}])
    def test_server_rejects_a_non_integer_id(self, service, bad_id):
        frame = raw_frame({"kind": "stats", "id": bad_id})
        with DSRAsyncServer(service) as server:
            frames, closed = exchange(server.address, frame, timeout=2.0)
        assert closed
        ((message, _version, request_id),) = frames
        assert isinstance(message, ErrorResponse)
        assert message.error == "ProtocolError" and "request id" in message.message
        assert request_id is None

    def test_client_fails_pending_requests_with_the_protocol_error(self):
        """Regression: an unhashable reply id raised TypeError out of the
        client's read loop instead of failing its pending futures."""

        async def drive():
            async def answer_with_a_list_id(reader, writer):
                await reader.read(65536)
                writer.write(raw_frame({"kind": "stats-result", "id": [1, 2]}))
                await writer.drain()

            fake = await asyncio.start_server(answer_with_a_list_id, "127.0.0.1", 0)
            try:
                host, port = fake.sockets[0].getsockname()[:2]
                async with DSRAsyncClient(host, port, timeout=2.0) as client:
                    with pytest.raises(ProtocolError, match="request id"):
                        await client.stats()
            finally:
                fake.close()
                await fake.wait_closed()

        asyncio.run(drive())


class TestHostileNeighbour:
    @pytest.mark.parametrize(
        "garbage",
        [
            b'{"kind":"stats"}\n',
            struct.pack(">IB", 0, PROTOCOL_VERSION),
            struct.pack(">IB", 0xFFFFFFFF, PROTOCOL_VERSION),
            struct.pack(">IB", 12, PROTOCOL_VERSION) + b"\xff\xfenot json!",
            struct.pack(">IB", 3, PROTOCOL_VERSION) + b"[]",
            pack_frame(StatsRequest())[:4] + b"\x09" + pack_frame(StatsRequest())[5:],
        ],
        ids=["json-line", "zero-length", "huge-length", "bad-utf8", "not-a-dict",
             "future-version"],
    )
    def test_one_typed_error_then_closed_while_a_neighbour_is_served(
        self, graph, service, garbage
    ):
        vertices = sorted(graph.vertices())
        big = (vertices[:40], vertices[60:160])

        async def neighbour(address, hostile_done):
            async with DSRAsyncClient(*address, timeout=30.0) as client:
                inflight = asyncio.ensure_future(
                    client.query(*big, use_cache=False)
                )
                await asyncio.sleep(0)  # the request is on the wire
                loop = asyncio.get_running_loop()
                hostile = await loop.run_in_executor(
                    None, lambda: exchange(address, garbage, timeout=2.0)
                )
                hostile_done.append(hostile)
                return await inflight

        hostile_done = []
        with DSRAsyncServer(service) as server:
            answer = asyncio.run(neighbour(server.address, hostile_done))
        assert answer.pair_set == reachable_pairs(graph, *big)
        ((frames, closed),) = hostile_done
        assert closed
        ((message, _version, request_id),) = frames
        assert isinstance(message, ErrorResponse)
        assert message.error in ("ProtocolError", "OversizedFrameError")
        assert request_id is None


class TestFramingErrors:
    def test_oversized_binary_frame_errors_and_closes(self, service):
        with DSRAsyncServer(service, max_frame_bytes=1024) as server:
            frames, closed = exchange(
                server.address,
                struct.pack(">IB", 64 * 1024 * 1024, PROTOCOL_VERSION),
            )
        assert closed
        ((message, _version, _id),) = frames
        assert isinstance(message, ErrorResponse)
        assert message.error == "OversizedFrameError"

    def test_oversized_reply_typed_error_connection_lives(self, graph, service):
        # A reply bigger than the frame cap must come back as a typed error
        # on the matching request id — not as an uncapped frame the client's
        # reader rejects, killing every pending request on the connection.
        vertices = sorted(graph.vertices())

        async def drive(host, port):
            async with DSRAsyncClient(host, port) as client:
                big = await client.query(
                    vertices[:40], vertices[60:160], use_cache=False
                )
                small = await client.query(
                    vertices[:1], vertices[50:51], use_cache=False
                )
                return big, small

        with DSRAsyncServer(service, max_frame_bytes=2048) as server:
            big, small = asyncio.run(drive(*server.address))
        assert isinstance(big, ErrorResponse)
        assert big.error == "OversizedReplyError"
        # The connection survived and still serves fitting replies.
        assert not isinstance(small, ErrorResponse)
        assert small.pair_set == reachable_pairs(
            graph, vertices[:1], vertices[50:51]
        )

    def test_response_message_as_request_rejected_connection_lives(self, service):
        async def drive(host, port):
            async with DSRAsyncClient(host, port) as client:
                rejected = await client.request(
                    QueryResponse(pairs=((1, 2),))
                )
                alive = await client.stats()
                return rejected, alive

        with DSRAsyncServer(service) as server:
            host, port = server.address
            rejected, alive = asyncio.run(drive(host, port))
        assert isinstance(rejected, ErrorResponse)
        assert rejected.error == "ProtocolError"
        assert isinstance(alive, StatsResponse)


class TestShutdown:
    def test_loop_wedged_past_the_join_timeout_is_counted(self, service):
        """Regression: a stuck loop thread used to be silently abandoned."""
        server = DSRAsyncServer(service).start_in_thread()
        thread = server._thread
        release = threading.Event()
        server._loop.call_soon_threadsafe(release.wait)
        try:
            with use_registry() as registry:
                server.stop_from_thread(timeout=0.2)
                assert registry.counter_value(
                    "dsr_shutdown_stuck_threads",
                    where="DSRAsyncServer.stop_from_thread",
                ) == 1
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_clean_stop_counts_nothing(self, service):
        with use_registry() as registry:
            DSRAsyncServer(service).start_in_thread().stop_from_thread()
            assert registry.counter_total("dsr_shutdown_stuck_threads") == 0


class TestBackpressure:
    def test_watermarks_pause_reads_and_recover(self, graph):
        engine = DSREngine(graph, DSRConfig(num_partitions=3, local_index="msbfs", seed=2))
        service = DSRService(engine, num_workers=1, max_queue_depth=4)
        vertices = sorted(graph.vertices())
        big = (vertices[:40], vertices[60:160])

        async def drive(host, port):
            async with DSRAsyncClient(host, port, timeout=120.0) as client:
                responses = await asyncio.gather(
                    *(
                        client.query(*big, use_cache=False)
                        for _ in range(32)
                    )
                )
                after = await client.query(vertices[:5], vertices[50:55])
                return responses, after

        try:
            with DSRAsyncServer(service, high_watermark=3, low_watermark=1) as server:
                host, port = server.address
                responses, after = asyncio.run(drive(host, port))
                stats = server.stats()["async"]
            expected = reachable_pairs(graph, *big)
            served = [r for r in responses if not isinstance(r, ErrorResponse)]
            shed = [r for r in responses if isinstance(r, ErrorResponse)]
            assert served, "backpressure must not starve every request"
            for response in served:
                assert response.pair_set == expected
            # Overload is graceful: anything not served was shed with a typed
            # error, not dropped or crashed.
            for response in shed:
                assert response.error == "ServiceOverloadedError"
            assert stats["paused_total"] >= 1, "reads never paused under flood"
            assert stats["shed_total"] == len(shed)
            assert stats["reads_paused"] is False  # drained ⇒ resumed
            # The connection survived the flood and serves again.
            assert after.pair_set == reachable_pairs(
                graph, vertices[:5], vertices[50:55]
            )
        finally:
            service.close()

    def test_watermark_validation(self, service):
        with pytest.raises(ValueError):
            DSRAsyncServer(service, high_watermark=2, low_watermark=5)


class TestRateLimiting:
    def test_tenant_over_budget_throttled_others_unaffected(self, graph, service):
        vertices = sorted(graph.vertices())

        async def drive(host, port):
            async with DSRAsyncClient(host, port) as client:
                noisy = [
                    await client.query(
                        vertices[:3], vertices[40:43], tenant="noisy"
                    )
                    for _ in range(8)
                ]
                quiet = await client.query(
                    vertices[:3], vertices[40:43], tenant="quiet"
                )
                return noisy, quiet

        server = DSRAsyncServer(service, rate_limit_qps=5.0, rate_limit_burst=2)
        with server:
            host, port = server.address
            noisy, quiet = asyncio.run(drive(host, port))
            stats = server.stats()["async"]
        throttled = [r for r in noisy if isinstance(r, ErrorResponse)]
        assert throttled, "8 instant requests at burst 2 must throttle"
        assert all(r.error == "RateLimitedError" for r in throttled)
        assert not isinstance(quiet, ErrorResponse)  # buckets are per tenant
        assert stats["tenants"]["noisy"]["throttled"] == len(throttled)
        assert stats["tenants"].get("quiet", {}).get("throttled", 0) == 0

    def test_burst_defaults_to_qps(self, service):
        server = DSRAsyncServer(service, rate_limit_qps=7.0)
        assert server.rate_limit_burst == 7.0


class TestTenantSLOs:
    def test_per_tenant_percentiles_in_stats(self, graph, service):
        vertices = sorted(graph.vertices())

        async def drive(host, port):
            async with DSRAsyncClient(host, port) as client:
                for _ in range(5):
                    await client.query(
                        vertices[:4], vertices[44:48],
                        use_cache=False, tenant="crm",
                    )
                await client.stats()  # non-query: must NOT hit the histogram

        with DSRAsyncServer(service) as server:
            host, port = server.address
            asyncio.run(drive(host, port))
            crm = server.stats()["async"]["tenants"]["crm"]
            assert set(server.stats()["async"]["tenants"]) == {"crm"}
            assert crm["requests"] == 5
            assert crm["p50_ms"] >= 0.0
            assert crm["p99_ms"] >= crm["p50_ms"]
            assert server.tenant_percentile("crm", 99) >= server.tenant_percentile(
                "crm", 50
            )


class TestLoopFastPath:
    """Cache hits are answered on the event loop, not the worker pool."""

    def test_handle_nowait_hits_only(self, graph, service):
        vertices = sorted(graph.vertices())
        request = QueryRequest(tuple(vertices[:4]), tuple(vertices[40:44]))
        # Cold cache: the fast path must decline and leave metrics alone.
        assert service.handle_nowait(request) is None
        assert service.stats()["queries"] == 0
        full = service.handle(request)
        fast = service.handle_nowait(request)
        assert isinstance(fast, QueryResponse) and fast.cached
        assert set(fast.pairs) == set(full.pairs)
        # Metrically identical to a handle() cache hit.
        assert service.stats()["cache_hits"] == 1
        assert service.stats()["queries"] == 2

    def test_handle_nowait_declines_blocking_shapes(self, graph, service):
        vertices = sorted(graph.vertices())
        request = QueryRequest(tuple(vertices[:4]), tuple(vertices[40:44]))
        service.handle(request)
        uncached = QueryRequest(
            tuple(vertices[:4]), tuple(vertices[40:44]), use_cache=False
        )
        traced = QueryRequest(
            tuple(vertices[:4]), tuple(vertices[40:44]), trace=True
        )
        assert service.handle_nowait(uncached) is None
        assert service.handle_nowait(traced) is None
        assert service.handle_nowait(StatsRequest()) is None

    def test_cached_queries_never_enter_the_admission_queue(self, graph, service):
        vertices = sorted(graph.vertices())
        request = QueryRequest(tuple(vertices[:6]), tuple(vertices[30:36]))
        server = DSRAsyncServer(service)
        server.start_in_thread()
        try:
            async def drive():
                client = DSRAsyncClient(*server.address)
                await client.connect()
                try:
                    first = await client.query(vertices[:6], vertices[30:36])
                    again = await client.query(vertices[:6], vertices[30:36])
                    return first, again
                finally:
                    await client.close()

            first, again = asyncio.run(drive())
            assert not first.cached and again.cached
            assert set(again.pairs) == set(first.pairs)
            assert service.stats()["cache_hits"] == 1
        finally:
            server.stop_from_thread()

    def test_front_door_miss_is_counted_once(self, graph, service):
        """N distinct cacheable queries over the wire are N misses: the fast
        path's declined probe used to count one beside handle()'s own."""
        vertices = sorted(graph.vertices())
        server = DSRAsyncServer(service)
        server.start_in_thread()
        try:
            async def drive():
                async with DSRAsyncClient(*server.address) as client:
                    for offset in range(5):
                        await client.query(vertices[offset : offset + 4], vertices[40:44])
                    await client.query(vertices[:4], vertices[40:44])

            asyncio.run(drive())
        finally:
            server.stop_from_thread()
        stats = service.cache.stats
        assert (stats.misses, stats.hits) == (5, 1)
