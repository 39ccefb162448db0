"""Tests for the asyncio binary front door (protocol v5).

Covers the v5 framing end to end (multiplexed binary clients), the
newline-JSON compatibility path for v2/v3/v4 peers (version negotiation
with gated-field stripping in both directions), oversized-frame handling,
watermark backpressure, per-tenant rate limiting and tenant SLO stats.
"""

import asyncio
import json
import socket
import struct
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
from repro.service.protocol import (
    PROTOCOL_VERSION,
    StatsRequest,
    encode,
    pack_frame,
    unpack_frame,
)


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


def _compat_roundtrip(address, payloads):
    """Send newline-JSON payloads over a raw socket; return reply payloads."""
    with socket.create_connection(address, timeout=10.0) as raw:
        stream = raw.makefile("rw", encoding="utf-8", newline="\n")
        for payload in payloads:
            stream.write(json.dumps(payload) + "\n")
        stream.flush()
        return [json.loads(stream.readline()) for _ in payloads]


class TestCompatPath:
    def test_newline_json_client_still_works(self, graph, service):
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

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_old_version_peers_answered_at_their_version(
        self, graph, service, version
    ):
        """Satellite: v2/v3/v4 peers against the async compat path."""
        vertices = sorted(graph.vertices())
        request = QueryRequest(
            tuple(vertices[:4]), tuple(vertices[50:54]),
            trace=True, tenant="legacy",
        )
        payload = encode(request, version=version)
        # encode() already strips what the old peer cannot say...
        assert ("trace" in payload) == (version >= 3)
        assert ("tenant" in payload) == (version >= 4)
        with DSRAsyncServer(service) as server:
            (reply,) = _compat_roundtrip(server.address, [payload])
        # ...and the server answers at the version the peer spoke, stripping
        # response-side gated fields the same way.
        assert reply["kind"] == "query-result"
        assert reply["version"] == version
        assert ("trace" in reply) == (version >= 3)
        expected = reachable_pairs(graph, vertices[:4], vertices[50:54])
        assert {tuple(pair) for pair in reply["pairs"]} == expected

    def test_v5_line_peer_gets_trace_and_tenant_echo(self, graph, service):
        vertices = sorted(graph.vertices())
        payload = encode(
            QueryRequest(
                tuple(vertices[:3]), tuple(vertices[40:43]),
                trace=True, tenant="crm",
            )
        )
        with DSRAsyncServer(service) as server:
            (reply,) = _compat_roundtrip(server.address, [payload])
            assert server.tenant_percentile("crm", 50) >= 0.0
        assert reply["version"] == PROTOCOL_VERSION
        assert reply["trace"] is not None  # traced at v5, never stripped

    def test_compat_replies_stay_in_request_order(self, service):
        # Old clients read responses strictly in request order; the async
        # server must not let a fast request overtake a slow one.
        payloads = [encode(QueryRequest((0, 1), (2, 3)))]
        payloads += [{"kind": "stats", "version": 2}, {"kind": "snapshot"}] * 3
        with DSRAsyncServer(service) as server:
            replies = _compat_roundtrip(server.address, payloads)
        kinds = [reply["kind"] for reply in replies]
        assert kinds == ["query-result"] + ["stats-result", "snapshot-result"] * 3

    def test_pipelined_cache_hit_cannot_overtake_miss(self, graph, service):
        # Two pipelined legacy requests in ONE read batch, where the first
        # misses the cache (goes to a worker) and the second hits it: the
        # hit's synchronous fast path must not flush its reply ahead of the
        # miss, or a positional client silently mismatches every answer.
        vertices = sorted(graph.vertices())
        hot = QueryRequest(tuple(vertices[:4]), tuple(vertices[40:44]))
        cold = QueryRequest(
            tuple(vertices[:4]), tuple(vertices[50:54]), use_cache=False
        )
        cold_pairs = reachable_pairs(graph, vertices[:4], vertices[50:54])
        hot_pairs = reachable_pairs(graph, vertices[:4], vertices[40:44])
        assert cold_pairs != hot_pairs  # else a swap would be invisible
        with DSRAsyncServer(service) as server:
            _compat_roundtrip(server.address, [encode(hot)])  # prime the cache
            with socket.create_connection(server.address, timeout=10.0) as raw:
                batch = "".join(
                    json.dumps(encode(request)) + "\n" for request in (cold, hot)
                )
                raw.sendall(batch.encode("utf-8"))
                stream = raw.makefile("r", encoding="utf-8", newline="\n")
                cold_reply, hot_reply = (
                    json.loads(stream.readline()) for _ in range(2)
                )
        assert {tuple(pair) for pair in cold_reply["pairs"]} == cold_pairs
        assert {tuple(pair) for pair in hot_reply["pairs"]} == hot_pairs


class TestFramingErrors:
    def test_oversized_binary_frame_errors_and_closes(self, service):
        with DSRAsyncServer(service, max_frame_bytes=1024) as server:
            with socket.create_connection(server.address, timeout=10.0) as raw:
                raw.sendall(struct.pack(">IB", 64 * 1024 * 1024, PROTOCOL_VERSION))
                buffer = bytearray()
                while True:
                    try:
                        chunk = raw.recv(65536)
                    except ConnectionResetError:
                        break
                    if not chunk:
                        break
                    buffer.extend(chunk)
                message, _version, _id, _consumed = unpack_frame(buffer)
                assert isinstance(message, ErrorResponse)
                assert message.error == "OversizedFrameError"

    def test_oversized_line_errors_and_closes(self, service):
        with DSRAsyncServer(service, max_line_bytes=512) as server:
            with socket.create_connection(server.address, timeout=10.0) as raw:
                # Looks like a JSON line ('{' first) but never ends.
                raw.sendall(b"{" + b"a" * 4096)
                stream = raw.makefile("r", encoding="utf-8", newline="\n")
                try:
                    reply = json.loads(stream.readline())
                except (ConnectionResetError, ValueError):
                    return  # peer reset before the error flushed: also closed
                assert reply["kind"] == "error"
                assert reply["error"] == "OversizedFrameError"

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
        assert service.metrics.count("queries") == 0
        full = service.handle(request)
        fast = service.handle_nowait(request)
        assert isinstance(fast, QueryResponse) and fast.cached
        assert set(fast.pairs) == set(full.pairs)
        # Metrically identical to a handle() cache hit.
        assert service.metrics.count("cache_hits") == 1
        assert service.metrics.count("queries") == 2

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
            assert service.metrics.count("cache_hits") == 1
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
