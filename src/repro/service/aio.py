"""The front door of the DSR query service.

:class:`DSRAsyncServer` serves an existing :class:`~repro.service.server.DSRService`
on an :mod:`asyncio` event loop: one acceptor loop and zero threads per
connection, which is what lets it hold tens of thousands of idle
connections — a parked connection costs a transport object, not a stack.
It is the only server; :class:`DSRAsyncClient` (multiplexing, asyncio) and
:class:`~repro.service.server.DSRClient` (blocking, one request at a time)
are its two clients.

Framing
-------
Every connection speaks the **binary length-prefixed framing** of
:mod:`repro.service.protocol` (:func:`pack_frame` / :func:`unpack_frame`):
``[u32 length][u8 version][JSON body]``, with a connection-scoped request
``id`` in the body so many requests can be in flight per connection and
responses may return out of order (**multiplexing**).  Each reply is encoded
at the version its request's frame header carried.  There is no second
framing and no sniffing: bytes that do not parse as a frame of a live
version get one typed ``error`` frame and the connection is closed.

Backpressure
------------
The server never buffers unboundedly ahead of the service:

* when the service's admission queue reaches the **high watermark**, every
  connection's transport is paused (``transport.pause_reading``) — bytes
  stay in the kernel socket buffers and TCP pushes back on the peers;
  reading resumes when in-flight work drains below the **low watermark**;
* requests the service sheds (:class:`ServiceOverloadedError`) come back as
  a typed ``error`` response, so an overloaded server degrades by rejecting
  crisply instead of collapsing;
* per-connection frame reassembly is capped (:data:`MAX_FRAME_BYTES`) — an
  oversized frame gets a clean error and the connection closed.

Tenancy
-------
Query messages may carry a ``tenant`` label.  The front door
gives each tenant a **token bucket** (``rate_limit_qps`` sustained,
``rate_limit_burst`` burst); a tenant over budget receives a typed
``RateLimitedError`` response without the request ever touching the
admission queue.  Per-tenant request latency is recorded into the service's
:class:`~repro.obs.registry.MetricsRegistry` as the
``dsr_tenant_request_seconds`` histogram (label ``tenant``), so per-tenant
SLO percentiles (p50/p95/p99) ride the existing ``stats()``/Prometheus
exposition.

Execution
---------
Requests are executed by the service's existing worker thread pool:
:meth:`DSRService.submit` returns a ``concurrent.futures.Future`` that the
event loop awaits via :func:`asyncio.wrap_future` — the engine's lock-free
epoch-read semantics are untouched, and the event loop never blocks on a
query.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import socket
import threading
import time
from typing import Any, Dict, Optional, Set, Tuple

from repro.api.query import ReachQuery
from repro.service.protocol import (
    ErrorResponse,
    MAX_FRAME_BYTES,
    OversizedFrameError,
    PROTOCOL_VERSION,
    ProtocolError,
    QueryRequest,
    REQUEST_TYPES,
    StatsRequest,
    UpdateRequest,
    pack_frame,
    unpack_frame,
)
from repro.service.server import (
    DSRService,
    ServiceOverloadedError,
    _count_stuck_threads,
)


class RateLimitedError(RuntimeError):
    """A tenant exceeded its token-bucket budget; the request was not run."""


# ---------------------------------------------------------------------- #
# token bucket
# ---------------------------------------------------------------------- #
class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Single-threaded by design — it lives on the event loop, so no lock.
    """

    __slots__ = ("rate", "burst", "_tokens", "_stamp")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic()

    def try_acquire(self, amount: float = 1.0) -> bool:
        now = time.monotonic()
        self._tokens = min(self.burst, self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False


# ---------------------------------------------------------------------- #
# per-connection protocol
# ---------------------------------------------------------------------- #
class _Connection(asyncio.Protocol):
    """One client connection: frame reassembly, multiplexing, flow control."""

    def __init__(self, server: "DSRAsyncServer") -> None:
        self.server = server
        self.transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._paused = False
        self._closing = False
        self._tasks: Set[asyncio.Task] = set()
        #: Replies produced synchronously while draining one read batch are
        #: coalesced here and written with a single transport.write — one
        #: send syscall for a whole pipelined burst instead of one each.
        self._out: list = []

    # -- transport lifecycle ------------------------------------------- #
    def connection_made(self, transport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - best effort
                pass
        self.server._register(self)

    def connection_lost(self, exc) -> None:
        self._closing = True
        for task in self._tasks:
            task.cancel()
        self.server._unregister(self)

    # -- flow control --------------------------------------------------- #
    def maybe_pause(self) -> None:
        if not self._paused and self.transport is not None and not self._closing:
            self._paused = True
            try:
                self.transport.pause_reading()
            except RuntimeError:  # pragma: no cover - already closing
                return
            self.server.metrics.inc("dsr_conn_paused_total")

    def maybe_resume(self) -> None:
        if self._paused and self.transport is not None and not self._closing:
            self._paused = False
            try:
                self.transport.resume_reading()
            except RuntimeError:  # pragma: no cover - already closing
                pass

    # -- inbound bytes --------------------------------------------------- #
    def data_received(self, data: bytes) -> None:
        self._buffer.extend(data)
        try:
            self._drain_frames()
        except OversizedFrameError as exc:
            self._fail("OversizedFrameError", str(exc))
        except ProtocolError as exc:
            self._fail("ProtocolError", str(exc))
        finally:
            self._flush_out()

    def _flush_out(self) -> None:
        if not self._out:
            return
        payload = b"".join(self._out)
        self._out.clear()
        if self.transport is None or self._closing:
            return
        try:
            self.transport.write(payload)
        except (OSError, RuntimeError):  # pragma: no cover - peer went away
            self._closing = True

    def _drain_frames(self) -> None:
        while not self._closing:
            framed = unpack_frame(self._buffer, self.server.max_frame_bytes)
            if framed is None:
                if len(self._buffer) > self.server.max_frame_bytes + 8:
                    raise OversizedFrameError(
                        "frame reassembly buffer exceeded the "
                        f"{self.server.max_frame_bytes}-byte cap"
                    )
                return
            message, version, request_id, consumed = framed
            del self._buffer[:consumed]
            self._dispatch(message, version, request_id)

    # -- request handling ------------------------------------------------ #
    def _dispatch(self, message: Any, version: int, request_id: Optional[int]) -> None:
        if not isinstance(message, REQUEST_TYPES):
            self._send(
                ErrorResponse(
                    "ProtocolError",
                    f"{type(message).__name__} is not a request message",
                ),
                version,
                request_id,
            )
            return
        server = self.server
        # Synchronous fast path: a throttle or a cache hit is answered right
        # here — no task object, no worker handoff.  Replies are matched by
        # request id, so their order never matters.
        started = time.perf_counter()
        tenant = getattr(message, "tenant", None)
        if not server._admit_tenant(tenant):
            self._send(
                _throttled_response(server, tenant),
                version,
                request_id,
                buffered=True,
            )
            return
        # Cache hits are answered directly on the event loop — no
        # worker-pool round trip (two thread handoffs) per request.  This
        # is the front door's main throughput edge: only work that can
        # block is admitted to the queue.
        fast = server.service.handle_nowait(message)
        if fast is not None:
            self._send(fast, version, request_id, buffered=True)
            server._observe(tenant, message, time.perf_counter() - started)
            return
        task = server._loop.create_task(
            self._run_request(message, version, request_id)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_request(
        self,
        request: Any,
        version: int,
        request_id: Optional[int],
    ) -> None:
        """Run one admitted request that may block, then reply by id."""
        server = self.server
        started = time.perf_counter()
        tenant = getattr(request, "tenant", None)
        try:
            executed = False
            if isinstance(request, StatsRequest):
                # Served by the front door itself so the reply includes the
                # ``async`` section (connections, watermarks, tenant SLOs).
                response = await server._loop.run_in_executor(
                    None, lambda: _stats_response(server)
                )
            else:
                try:
                    future = server.service.submit(request)
                except ServiceOverloadedError as exc:
                    server.metrics.inc("dsr_requests_shed_total")
                    response = ErrorResponse("ServiceOverloadedError", str(exc))
                except RuntimeError as exc:
                    response = ErrorResponse("RuntimeError", str(exc))
                else:
                    server._inflight += 1
                    server._check_pressure()
                    try:
                        response = await asyncio.wrap_future(future)
                    finally:
                        server._inflight -= 1
                        server._check_pressure()
                    executed = True
            self._send(response, version, request_id)
            if executed:
                # Only executed requests feed the tenant SLO histogram —
                # sheds would drag percentiles toward zero.
                server._observe(tenant, request, time.perf_counter() - started)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            self._send(ErrorResponse(type(exc).__name__, str(exc)), version, request_id)

    # -- outbound -------------------------------------------------------- #
    def _send(
        self,
        message: Any,
        version: int,
        request_id: Optional[int],
        buffered: bool = False,
    ) -> None:
        if self.transport is None or self._closing:
            return
        try:
            # Cap replies at the receiver-side frame limit: clients
            # enforce MAX_FRAME_BYTES in unpack_frame, so an oversized
            # reply would kill their read loop and fail every pending
            # request on the connection.  Answer with a typed error
            # (small by construction) instead.
            cap = min(self.server.max_frame_bytes, MAX_FRAME_BYTES)
            try:
                payload = pack_frame(
                    message,
                    version=version,
                    request_id=request_id,
                    max_frame_bytes=cap,
                )
            except OversizedFrameError as exc:
                payload = pack_frame(
                    ErrorResponse("OversizedReplyError", str(exc)),
                    version=version,
                    request_id=request_id,
                )
            if buffered:
                # Caller is inside the data_received drain loop; the batch
                # flushes as one write when the loop finishes.
                self._out.append(payload)
            else:
                self.transport.write(payload)
        except (OSError, RuntimeError):  # pragma: no cover - peer went away
            self._closing = True

    def _fail(self, error: str, detail: str) -> None:
        """Protocol failure: report once, then close the connection."""
        self._flush_out()  # keep replies already produced ahead of the error
        self._send(ErrorResponse(error, detail), PROTOCOL_VERSION, None)
        self._closing = True
        if self.transport is not None:
            self.transport.close()


def _throttled_response(server: "DSRAsyncServer", tenant: Optional[str]) -> ErrorResponse:
    return ErrorResponse(
        "RateLimitedError",
        f"tenant {tenant or 'default'!r} exceeded "
        f"{server.rate_limit_qps:g} requests/second",
    )


def _stats_response(server: "DSRAsyncServer"):
    from repro.service.protocol import StatsResponse

    try:
        return StatsResponse(stats=server.stats())
    except Exception as exc:  # pragma: no cover - defensive
        return ErrorResponse(type(exc).__name__, str(exc))


# ---------------------------------------------------------------------- #
# the server
# ---------------------------------------------------------------------- #
class DSRAsyncServer:
    """Asyncio front door over a :class:`DSRService` (binary framing).

    Parameters
    ----------
    service:
        The service whose worker pool executes requests.
    host, port:
        Listen address (``port=0`` picks a free port; read ``address``).
    high_watermark / low_watermark:
        In-flight request counts at which *all* connections pause / resume
        reading.  Defaults derive from the service's admission queue so
        backpressure engages just before the queue sheds.
    rate_limit_qps / rate_limit_burst:
        Per-tenant token bucket (``None`` disables rate limiting).
    max_frame_bytes:
        Per-connection frame cap (oversized ⇒ typed error + close).
    """

    def __init__(
        self,
        service: DSRService,
        host: str = "127.0.0.1",
        port: int = 0,
        high_watermark: Optional[int] = None,
        low_watermark: Optional[int] = None,
        rate_limit_qps: Optional[float] = None,
        rate_limit_burst: Optional[float] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.service = service
        self.metrics = service.metrics.registry
        self._host = host
        self._port = port
        queue_cap = service._queue.maxsize or 64
        self.high_watermark = (
            high_watermark if high_watermark is not None else queue_cap
        )
        self.low_watermark = (
            low_watermark
            if low_watermark is not None
            else max(1, self.high_watermark // 2)
        )
        if self.low_watermark > self.high_watermark:
            raise ValueError("low_watermark must be <= high_watermark")
        self.rate_limit_qps = rate_limit_qps
        self.rate_limit_burst = (
            rate_limit_burst
            if rate_limit_burst is not None
            else (rate_limit_qps if rate_limit_qps is not None else None)
        )
        self.max_frame_bytes = max_frame_bytes

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._buckets: Dict[str, TokenBucket] = {}
        self._inflight = 0
        self._reads_paused = False
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_event: Optional[asyncio.Event] = None
        self.address: Optional[Tuple[str, int]] = None

    # -- lifecycle ------------------------------------------------------- #
    async def start(self) -> "DSRAsyncServer":
        """Start serving on the running event loop."""
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), self._host, self._port, backlog=2048
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        self._started.set()
        return self

    async def stop(self) -> None:
        """Stop accepting, close every connection, wait for them to go."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for connection in list(self._connections):
            if connection.transport is not None:
                connection.transport.close()
        # Let connection_lost callbacks run.
        await asyncio.sleep(0)
        self._stopped.set()

    def start_in_thread(self) -> "DSRAsyncServer":
        """Run the server on a dedicated event-loop thread (sync callers)."""
        if self._thread is not None:
            raise RuntimeError("server already started")

        def _run() -> None:
            asyncio.run(self._thread_main())

        self._thread = threading.Thread(target=_run, name="dsr-aio", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):  # pragma: no cover
            raise RuntimeError("async server failed to start")
        return self

    async def _thread_main(self) -> None:
        self._shutdown_event = asyncio.Event()
        await self.start()
        await self._shutdown_event.wait()
        await self.stop()

    def stop_from_thread(self, timeout: float = 10.0) -> None:
        """Counterpart of :meth:`start_in_thread` for sync callers."""
        if self._thread is None or self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._shutdown_event.set)
        self._thread.join(timeout=timeout)
        # A loop wedged past the join timeout must be visible, not silently
        # abandoned.
        _count_stuck_threads([self._thread], "DSRAsyncServer.stop_from_thread")
        self._thread = None

    def wait(self) -> None:
        """Block until the thread-mode server exits (Ctrl-C friendly)."""
        thread = self._thread
        while thread is not None and thread.is_alive():
            thread.join(timeout=0.5)

    def __enter__(self) -> "DSRAsyncServer":
        return self.start_in_thread()

    def __exit__(self, *exc_info) -> None:
        self.stop_from_thread()

    # -- connection registry -------------------------------------------- #
    def _register(self, connection: _Connection) -> None:
        self._connections.add(connection)
        self.metrics.set_gauge("dsr_conn_active", float(len(self._connections)))
        if self._reads_paused:
            connection.maybe_pause()

    def _unregister(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        self.metrics.set_gauge("dsr_conn_active", float(len(self._connections)))

    # -- backpressure ---------------------------------------------------- #
    def _check_pressure(self) -> None:
        """Pause/resume every connection against the in-flight watermarks."""
        if not self._reads_paused and self._inflight >= self.high_watermark:
            self._reads_paused = True
            for connection in self._connections:
                connection.maybe_pause()
        elif self._reads_paused and self._inflight <= self.low_watermark:
            self._reads_paused = False
            for connection in self._connections:
                connection.maybe_resume()

    # -- tenancy --------------------------------------------------------- #
    def _admit_tenant(self, tenant: Optional[str]) -> bool:
        if self.rate_limit_qps is None:
            return True
        key = tenant or "default"
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = TokenBucket(
                self.rate_limit_qps, self.rate_limit_burst
            )
        if bucket.try_acquire():
            return True
        self.metrics.inc("dsr_tenant_throttled_total", tenant=key)
        return False

    def _observe(self, tenant: Optional[str], request: Any, seconds: float) -> None:
        if isinstance(request, ReachQuery):
            self.metrics.observe(
                "dsr_tenant_request_seconds", seconds, tenant=tenant or "default"
            )

    # -- introspection --------------------------------------------------- #
    def tenant_percentile(self, tenant: str, percent: float) -> float:
        """Per-tenant latency percentile (seconds) from the histogram."""
        return self.metrics.percentile(
            "dsr_tenant_request_seconds", percent, tenant=tenant
        )

    def _snapshot_loop_state(self) -> Tuple[Tuple[str, ...], int, int, bool]:
        """Consistent copy of loop-owned state (buckets, connections, ...).

        ``stats()`` runs on executor or plain sync threads while the event
        loop mutates ``_buckets`` and ``_connections``; iterating them
        off-loop can raise ``RuntimeError: dictionary changed size during
        iteration`` under load.  Hop onto the loop for the snapshot whenever
        it is running and we are not already on it.
        """

        def _grab() -> Tuple[Tuple[str, ...], int, int, bool]:
            return (
                tuple(self._buckets),
                len(self._connections),
                self._inflight,
                self._reads_paused,
            )

        loop = self._loop
        if loop is None or not loop.is_running():
            return _grab()
        try:
            if asyncio.get_running_loop() is loop:
                return _grab()
        except RuntimeError:
            pass
        snapshot: concurrent.futures.Future = concurrent.futures.Future()

        def _on_loop() -> None:
            try:
                snapshot.set_result(_grab())
            except BaseException as exc:  # pragma: no cover - defensive
                snapshot.set_exception(exc)

        try:
            loop.call_soon_threadsafe(_on_loop)
            return snapshot.result(timeout=5.0)
        except (RuntimeError, concurrent.futures.TimeoutError):
            # Loop shut down underneath us: best-effort direct read (no
            # concurrent mutator is left at that point).
            return _grab()

    def stats(self) -> Dict[str, Any]:
        """The service's stats dict plus an ``async`` front-door section."""
        stats = self.service.stats()
        bucket_keys, connections, inflight, reads_paused = (
            self._snapshot_loop_state()
        )
        tenants: Dict[str, Any] = {}
        for key in bucket_keys:
            tenants[key] = {
                "throttled": int(
                    self.metrics.counter_value(
                        "dsr_tenant_throttled_total", tenant=key
                    )
                ),
            }
        for tenant in self.metrics.label_values(
            "dsr_tenant_request_seconds", "tenant"
        ):
            entry = tenants.setdefault(tenant, {"throttled": 0})
            entry["requests"] = self.metrics.histogram_count(
                "dsr_tenant_request_seconds", tenant=tenant
            )
            for percent in (50, 95, 99):
                entry[f"p{percent}_ms"] = round(
                    self.tenant_percentile(tenant, percent) * 1000.0, 3
                )
        stats["async"] = {
            "connections": connections,
            "inflight": inflight,
            "reads_paused": reads_paused,
            "high_watermark": self.high_watermark,
            "low_watermark": self.low_watermark,
            "paused_total": int(self.metrics.counter_total("dsr_conn_paused_total")),
            "shed_total": int(self.metrics.counter_total("dsr_requests_shed_total")),
            "rate_limit_qps": self.rate_limit_qps,
            "tenants": tenants,
        }
        return stats


# ---------------------------------------------------------------------- #
# async client
# ---------------------------------------------------------------------- #
class DSRAsyncClient:
    """Multiplexing asyncio client for :class:`DSRAsyncServer`.

    Any number of requests may be awaited concurrently on one connection;
    a background reader task matches responses to requests by id.
    """

    def __init__(
        self, host: str, port: int, timeout: Optional[float] = 10.0
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._reader_task: Optional[asyncio.Task] = None

    async def connect(self) -> "DSRAsyncClient":
        self._reader, self._writer = await asyncio.wait_for(
            asyncio.open_connection(self._host, self._port), self._timeout
        )
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())
        return self

    async def _read_loop(self) -> None:
        buffer = bytearray()
        failure: Optional[BaseException] = None
        try:
            while True:
                chunk = await self._reader.read(65536)
                if not chunk:
                    break
                buffer.extend(chunk)
                while True:
                    framed = unpack_frame(buffer)
                    if framed is None:
                        break
                    message, _version, request_id, consumed = framed
                    del buffer[:consumed]
                    future = self._pending.pop(request_id, None)
                    if future is not None and not future.done():
                        future.set_result(message)
        except asyncio.CancelledError:
            pass
        except (OSError, ProtocolError) as exc:
            # Keep the real reason (e.g. an OversizedFrameError) so pending
            # callers see the protocol failure, not a generic reset.
            failure = exc
        finally:
            error = failure or ConnectionResetError(
                "connection to the async server was lost"
            )
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def request(self, message: Any) -> Any:
        if self._writer is None:
            raise RuntimeError("client is not connected")
        request_id = self._next_id
        self._next_id += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(pack_frame(message, request_id=request_id))
        await self._writer.drain()
        if self._timeout is not None:
            return await asyncio.wait_for(future, self._timeout)
        return await future

    # Convenience wrappers ---------------------------------------------- #
    async def query(
        self,
        sources,
        targets,
        direction: str = "auto",
        use_cache: bool = True,
        tenant: Optional[str] = None,
    ) -> Any:
        return await self.request(
            QueryRequest(
                tuple(sources), tuple(targets), direction, use_cache, tenant=tenant
            )
        )

    async def update(self, op: str, u=None, v=None) -> Any:
        return await self.request(UpdateRequest(op, u, v))

    async def stats(self) -> Any:
        return await self.request(StatsRequest())

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (OSError, asyncio.CancelledError):  # pragma: no cover
                pass
            self._writer = None

    async def __aenter__(self) -> "DSRAsyncClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


__all__ = [
    "DSRAsyncClient",
    "DSRAsyncServer",
    "RateLimitedError",
    "TokenBucket",
]
