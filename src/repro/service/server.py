"""The concurrent DSR serving layer.

:class:`DSRService` turns a built :class:`~repro.core.engine.DSREngine` — a
batch, single-caller object — into a long-lived service:

* requests enter through a bounded **admission queue** and are executed by a
  **worker thread pool** (:meth:`DSRService.submit` returns a future;
  :meth:`DSRService.handle` is the synchronous core the workers run);
* every query goes through the :class:`~repro.service.planner.QueryPlanner`
  (direction choice) and the
  :class:`~repro.service.cache.ResultCache` (exact-answer reuse with precise
  invalidation under updates);
* per-request **metrics** are recorded: latency percentiles per request kind,
  cache hit rate, and the simulated cluster's message/byte counters for the
  queries that actually hit the engine.

Locking depends on the engine's ``epoch_flush`` mode.  An **inline** engine
folds pending updates into the index on the query path, so the service
serialises engine access behind one lock (concurrency still pays off for
cache hits, protocol handling and admission control); cached answers are
stored *while the engine lock is still held*, so an interleaved update can
never re-insert a result computed against the pre-update graph.  A
**background** engine is epoch-versioned: queries capture one published
:class:`~repro.core.index.EpochState` and never flush, so the service runs
them *without* the engine lock — reads never block on maintenance or on each
other; only updates serialise.  Cache entries are then tagged with their
epoch and lookups reject entries from any other epoch, which is what makes
the lock-free path safe (a result computed just before an epoch swap can be
stored after it, but can never be *served* after it).

:class:`~repro.service.aio.DSRAsyncServer` exposes the service over TCP in
the binary framing of :mod:`repro.service.protocol`; :class:`DSRClient` here
is its blocking, one-request-at-a-time client.
"""

from __future__ import annotations

import logging
import math
import queue
import socket
import threading
import time
from collections import deque
from concurrent.futures import Future
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

from repro.api.query import ReachQuery
from repro.core.engine import DSREngine
from repro.obs.registry import MetricsRegistry
from repro.obs.runtime import global_registry
from repro.obs.trace import QueryTrace
from repro.service.cache import ResultCache
from repro.service.planner import QueryPlanner
from repro.service.protocol import (
    ErrorResponse,
    MetricsRequest,
    MetricsResponse,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    SnapshotRequest,
    SnapshotResponse,
    StatsRequest,
    StatsResponse,
    UpdateRequest,
    UpdateResponse,
    pack_frame,
    unpack_frame,
)
from repro.resilience.deadline import Deadline, check_deadline, deadline_scope
from repro.resilience.failpoints import failpoint

logger = logging.getLogger(__name__)


def _count_stuck_threads(threads, where: str) -> int:
    """Warn about and count threads that survived their shutdown join."""
    stuck = [thread.name for thread in threads if thread.is_alive()]
    if stuck:
        logger.warning(
            "%s: %d thread(s) still alive after join timeout: %s",
            where, len(stuck), ", ".join(stuck),
        )
        registry = global_registry()
        if registry.enabled:
            registry.inc(
                "dsr_shutdown_stuck_threads", float(len(stuck)), where=where
            )
    return len(stuck)


class ServiceOverloadedError(RuntimeError):
    """Raised by :meth:`DSRService.submit` when the admission queue is full."""


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
class ServiceMetrics:
    """Thread-safe per-request serving metrics.

    Counters live only in a per-service
    :class:`~repro.obs.registry.MetricsRegistry` (``self.registry``): each
    request kind as ``dsr_service_requests_total{kind=...}`` and every other
    counter ``<name>`` of :data:`COUNTERS` as ``dsr_service_<name>_total``,
    which is what the Prometheus text exposition
    (:meth:`DSRService.metrics_text`) serves and what :meth:`as_dict` reads
    back.  The registry is per-instance, not the process-global one, so
    concurrent services (and tests) never bleed counters into each other.

    Latency samples are kept beside it in a bounded sliding window per
    request kind (``max_samples``), so a long-lived server computes
    percentiles over recent traffic instead of growing without bound —
    :meth:`percentile` stays an exact order statistic over that window.  The
    registry's histogram buckets are too coarse for sub-0.1 ms cache hits.
    """

    #: Counters every ``stats()`` reports, at 0 before their first increment.
    COUNTERS = (
        "queries", "cache_hits", "updates", "admin", "errors", "rejected",
        "messages_sent", "bytes_sent",
    )

    def __init__(
        self, max_samples: int = 8192, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self._lock = threading.Lock()
        self._max_samples = max_samples
        self._latencies: Dict[str, "deque"] = {}
        self.registry = registry if registry is not None else MetricsRegistry()
        self._started_at = time.perf_counter()

    def record(self, kind: str, latency_seconds: float) -> None:
        with self._lock:
            self._latencies.setdefault(
                kind, deque(maxlen=self._max_samples)
            ).append(latency_seconds)
        self.registry.inc("dsr_service_requests_total", kind=kind)
        self.registry.observe("dsr_service_request_seconds", latency_seconds, kind=kind)

    @staticmethod
    def _rank(ordered: List[float], percent: float) -> float:
        rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def percentile(self, kind: str, percent: float) -> float:
        """Latency percentile (seconds) for one request kind; 0.0 if unseen."""
        with self._lock:
            samples = sorted(self._latencies.get(kind, ()))
        if not samples:
            return 0.0
        return self._rank(samples, percent)

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            kinds = {kind: list(values) for kind, values in self._latencies.items()}
            elapsed = time.perf_counter() - self._started_at
        counter = self.registry.counter_value
        summary: Dict[str, Any] = {
            name: int(counter(f"dsr_service_{name}_total")) for name in self.COUNTERS
        }
        for kind in kinds:
            summary[f"{kind}_count"] = int(
                counter("dsr_service_requests_total", kind=kind)
            )
        total_requests = sum(summary[f"{kind}_count"] for kind in kinds)
        summary["requests"] = total_requests
        summary["uptime_seconds"] = round(elapsed, 6)
        summary["requests_per_second"] = (
            round(total_requests / elapsed, 3) if elapsed > 0 else 0.0
        )
        queries = summary["queries"]
        summary["cache_hit_rate"] = (
            round(summary["cache_hits"] / queries, 4) if queries else 0.0
        )
        for kind, values in kinds.items():
            ordered = sorted(values)
            for percent in (50, 95, 99):
                summary[f"{kind}_p{percent}_ms"] = round(
                    self._rank(ordered, percent) * 1000.0, 3
                )
        return summary


# ---------------------------------------------------------------------- #
# the service
# ---------------------------------------------------------------------- #
class DSRService:
    """Concurrent query/update service over one :class:`DSREngine`."""

    def __init__(
        self,
        engine: DSREngine,
        num_workers: int = 4,
        max_queue_depth: int = 64,
        cache_capacity: int = 1024,
        enable_cache: bool = True,
    ) -> None:
        if num_workers < 1:
            raise ValueError("the service needs at least one worker")
        if not engine.is_built:
            engine.build_index()
        self.engine = engine
        #: True when the engine maintains epochs in the background: queries
        #: run lock-free against the published epoch and never flush.
        self._background_epochs = (
            getattr(engine, "epoch_flush", "inline") == "background"
        )
        self.planner = QueryPlanner(engine)
        self.metrics = ServiceMetrics()
        self.cache: Optional[ResultCache] = None
        if enable_cache:
            # Staleness protection matches the maintenance mode: inline
            # engines clear the cache the moment a structural update is
            # recorded; background engines invalidate at the epoch swap (and
            # every entry is epoch-tagged, so lookups are version-checked).
            invalidate_on = "flush" if self._background_epochs else "update"
            self.cache = ResultCache(capacity=cache_capacity)
            self.cache.attach(engine.maintainer, invalidate_on=invalidate_on)

        self._engine_lock = threading.Lock()
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_queue_depth)
        self._workers: List[threading.Thread] = []
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        for worker_id in range(num_workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"dsr-worker-{worker_id}", daemon=True
            )
            worker.start()
            self._workers.append(worker)

    # ------------------------------------------------------------------ #
    # asynchronous entry point
    # ------------------------------------------------------------------ #
    def submit(self, request) -> "Future":
        """Enqueue a request; the future resolves to its response message.

        A query's ``deadline_ms`` clock starts *here*, at admission — queue
        wait counts against the budget, and a request whose budget is
        already gone when a worker dequeues it is shed without touching the
        engine.
        """
        future: Future = Future()
        deadline = (
            Deadline.from_query(request) if isinstance(request, ReachQuery) else None
        )
        # The closed check and the enqueue are one atomic step with respect
        # to close(): otherwise a request slipping in between the check and
        # the worker-shutdown sentinels would never resolve.
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("service is closed")
            try:
                self._queue.put_nowait((request, future, deadline))
            except queue.Full:
                self.metrics.registry.inc("dsr_service_rejected_total")
                raise ServiceOverloadedError(
                    f"admission queue full ({self._queue.maxsize} pending requests)"
                ) from None
        return future

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                break
            request, future, deadline = item
            if not future.set_running_or_notify_cancel():
                continue
            if deadline is not None and deadline.expired:
                # Shed before execution: the budget was spent in the queue.
                self.metrics.registry.inc("dsr_service_errors_total")
                exc = deadline.exceeded("queue")
                future.set_result(
                    ErrorResponse(error=type(exc).__name__, message=str(exc))
                )
                continue
            try:
                future.set_result(self.handle(request, deadline=deadline))
            except BaseException as exc:  # pragma: no cover - handle() catches
                future.set_exception(exc)

    # ------------------------------------------------------------------ #
    # synchronous core
    # ------------------------------------------------------------------ #
    def handle(self, request, deadline: Optional[Deadline] = None):
        """Execute one protocol request and return its response message.

        ``deadline`` is the budget captured at admission (:meth:`submit`);
        direct synchronous callers get one started here instead.  The
        deadline is scoped to this thread for the whole execution, so the
        engine call site and the executors below check it without threading
        it through every signature.
        """
        start = time.perf_counter()
        if deadline is None and isinstance(request, ReachQuery):
            deadline = Deadline.from_query(request)
        try:
            with deadline_scope(deadline):
                if deadline is not None:
                    deadline.check("admission")
                # Wire-form QueryRequests and plain API ReachQuerys are the
                # same message; in-process callers may submit either.
                if isinstance(request, ReachQuery):
                    return self._handle_query(request, start)
                if isinstance(request, UpdateRequest):
                    return self._handle_update(request, start)
                if isinstance(request, StatsRequest):
                    self.metrics.registry.inc("dsr_service_admin_total")
                    return StatsResponse(stats=self.stats())
                if isinstance(request, MetricsRequest):
                    self.metrics.registry.inc("dsr_service_admin_total")
                    return MetricsResponse(text=self.metrics_text())
                if isinstance(request, SnapshotRequest):
                    self.metrics.registry.inc("dsr_service_admin_total")
                    with self._engine_lock:
                        snapshot = self.engine.cluster.snapshot()
                    return SnapshotResponse(snapshot=snapshot)
                raise ProtocolError(
                    f"not a request message: {type(request).__name__}"
                )
        except Exception as exc:
            self.metrics.registry.inc("dsr_service_errors_total")
            return ErrorResponse(error=type(exc).__name__, message=str(exc))

    def handle_nowait(self, request):
        """Answer ``request`` only if it cannot block; ``None`` otherwise.

        The fast path for front doors that must not stall their calling
        thread (the async server's event loop): a plain cached query is
        answered inline — same response shape and same metrics as
        :meth:`handle` — while anything that needs the engine or a trace
        returns ``None`` for the caller to
        :meth:`submit` to the worker pool instead.
        """
        if (
            not isinstance(request, ReachQuery)
            or request.trace
            or not request.use_cache
            or self.cache is None
        ):
            return None
        start = time.perf_counter()
        try:
            lookup_epoch = self.engine.epoch if self._background_epochs else None
            # A miss goes back to the caller, whose submit() reaches
            # _handle_query's own lookup — that one counts it.
            cached = self.cache.get(
                request.sources, request.targets, epoch=lookup_epoch, count_miss=False
            )
            if cached is None:
                return None
            # The planner only supplies the reply's direction here — a hit
            # never touches the engine (planning only compares set sizes).
            plan = self.planner.plan(request)
            self.metrics.registry.inc("dsr_service_queries_total")
            return self._cached_response(cached, plan, lookup_epoch, start)
        except Exception as exc:
            self.metrics.registry.inc("dsr_service_errors_total")
            return ErrorResponse(error=type(exc).__name__, message=str(exc))

    def _cached_response(
        self, cached, plan, lookup_epoch: Optional[int], start: float,
        trace: Optional[QueryTrace] = None,
    ) -> QueryResponse:
        """Account for and build the reply to a cache hit."""
        latency = time.perf_counter() - start
        self.metrics.registry.inc("dsr_service_cache_hits_total")
        # Cache hits skip the engine entirely; recording them as full
        # queries used to drag the "query" percentiles down.
        self.metrics.record("query_cached", latency)
        return QueryResponse(
            pairs=tuple(cached),
            cached=True,
            direction=plan.direction,
            num_batches=0,
            latency_seconds=latency,
            epoch=lookup_epoch if lookup_epoch is not None else -1,
            trace=trace.to_dict() if trace is not None else None,
        )

    def _handle_query(self, request: ReachQuery, start: float) -> QueryResponse:
        self.metrics.registry.inc("dsr_service_queries_total")
        trace = QueryTrace() if request.trace else None
        if trace is not None:
            with trace.span("plan") as plan_span:
                plan = self.planner.plan(request)
            plan_span.attrs["direction"] = plan.direction
        else:
            plan = self.planner.plan(request)
        if plan.is_empty:
            latency = time.perf_counter() - start
            # A trivially empty plan never touches the engine: account it
            # separately from full queries so latency percentiles stay honest.
            self.metrics.record("query_empty", latency)
            return QueryResponse(
                pairs=(), direction=plan.direction, num_batches=0,
                latency_seconds=latency,
                trace=trace.to_dict() if trace is not None else None,
            )

        cache = self.cache
        use_cache = cache is not None and request.use_cache
        lookup_epoch = self.engine.epoch if self._background_epochs else None
        if use_cache:
            if trace is not None:
                with trace.span("cache_lookup") as cache_span:
                    cached = cache.get(
                        request.sources, request.targets, epoch=lookup_epoch
                    )
                cache_span.attrs["hit"] = cached is not None
            else:
                cached = cache.get(
                    request.sources, request.targets, epoch=lookup_epoch
                )
            if cached is not None:
                return self._cached_response(
                    cached, plan, lookup_epoch, start, trace
                )

        # One engine run answers the whole request from one captured epoch.
        # A background engine never flushes on the query path, so it runs
        # without the engine lock; an inline engine folds pending updates in
        # first, so its run and its cache store serialise behind the lock.
        guard = nullcontext() if self._background_epochs else self._engine_lock
        with guard:
            # The lock wait may have outlasted the budget (a flush ahead of
            # us): stop here rather than start a run nobody is waiting for.
            check_deadline("engine")
            result = self.engine.run(
                ReachQuery(
                    plan.sources,
                    plan.targets,
                    direction=plan.direction,
                    trace=trace is not None,
                )
            )
            if use_cache and not self._background_epochs:
                # Store under the lock: an update cannot interleave between
                # computing the answer and caching it, so entries always
                # reflect the current graph.
                cache.put(request.sources, request.targets, result.pairs)
            elif use_cache and plan.direction == "forward":
                # No lock needed: the entry is tagged with the epoch it was
                # computed at, and lookups reject entries from any other
                # epoch — a result stored after a swap can never be served
                # after it.  Backward results are deliberately not cached
                # here: their epoch counter belongs to the *reverse* index,
                # which flushes on its own coalescing thread, so tagging them
                # with it could collide numerically with a different forward
                # epoch at lookup time.
                cache.put(
                    request.sources, request.targets, result.pairs,
                    epoch=result.epoch,
                )
        registry = self.metrics.registry
        registry.inc("dsr_service_messages_sent_total", result.messages_sent)
        registry.inc("dsr_service_bytes_sent_total", result.bytes_sent)
        latency = time.perf_counter() - start
        self.metrics.record("query", latency)
        if trace is not None:
            if result.trace is not None:
                trace.merge_child(result.trace)
            trace.attrs["epoch"] = result.epoch
        return QueryResponse(
            pairs=tuple(result.pairs),
            cached=False,
            direction=plan.direction,
            num_batches=1,
            latency_seconds=latency,
            messages_sent=result.messages_sent,
            bytes_sent=result.bytes_sent,
            epoch=result.epoch,
            trace=trace.to_dict() if trace is not None else None,
        )

    def _handle_update(self, request: UpdateRequest, start: float) -> UpdateResponse:
        self.metrics.registry.inc("dsr_service_updates_total")
        vertex: Optional[int] = None
        structural = False
        affected: Tuple[int, ...] = ()
        with self._engine_lock:
            if request.op == "insert-edge":
                result = self.engine.insert_edge(request.u, request.v)
                structural, affected = result.structural_change, tuple(result.affected_partitions)
            elif request.op == "delete-edge":
                result = self.engine.delete_edge(request.u, request.v)
                structural, affected = result.structural_change, tuple(result.affected_partitions)
            elif request.op == "insert-vertex":
                vertex = self.engine.insert_vertex(request.u, request.partition_id)
            elif request.op == "delete-vertex":
                result = self.engine.delete_vertex(request.u)
                structural, affected = result.structural_change, tuple(result.affected_partitions)
            else:  # "flush"
                failpoint("service.flush")
                flushed = self.engine.flush_updates()
                # A flush reply is structural iff it published an epoch; the
                # partitions are those it re-summarised (possibly none).
                structural = flushed.published
                affected = tuple(flushed.refreshed_partitions)
        latency = time.perf_counter() - start
        self.metrics.record("update", latency)
        return UpdateResponse(
            op=request.op,
            structural_change=structural,
            affected_partitions=affected,
            vertex=vertex,
            latency_seconds=latency,
        )

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Serving metrics, cache counters and queue state in one dict."""
        combined = self.metrics.as_dict()
        # Both kinds always present, even before the first hit: a dashboard
        # diffing full queries against cache hits should never KeyError.
        combined.setdefault("query_count", 0)
        combined.setdefault("query_cached_count", 0)
        combined["queue_depth"] = self.queue_depth
        combined["workers"] = len(self._workers)
        combined["epoch"] = self.engine.epoch
        combined["epoch_flush"] = getattr(self.engine, "epoch_flush", "inline")
        combined["executor"] = self.engine.cluster.executor.name
        maintainer = self.engine.maintainer
        error = maintainer.background_flush_error if maintainer is not None else None
        combined["maintenance_error"] = repr(error) if error is not None else None
        combined["pending_maintenance"] = (
            maintainer.has_pending_changes if maintainer is not None else False
        )
        if maintainer is not None:
            combined["maintenance"] = maintainer.maintenance_stats()
        if self.cache is not None:
            combined["cache"] = self.cache.stats.as_dict()
            combined["cache_entries"] = len(self.cache)
        return combined

    def metrics_text(self) -> str:
        """Prometheus text exposition of the serving + engine registries.

        Combines this service's own registry (``dsr_service_*``) with the
        process-global engine registry (step counters, shard-task timings,
        epoch/flush instrumentation — including deltas shipped back from
        executor worker processes).  A few point-in-time gauges are refreshed
        on the way out.
        """
        registry = self.metrics.registry
        registry.set_gauge("dsr_service_queue_depth", float(self.queue_depth))
        registry.set_gauge("dsr_service_workers", float(len(self._workers)))
        if self.cache is not None:
            registry.set_gauge("dsr_service_cache_entries", float(len(self.cache)))
        age = self.engine.index.epoch_age_seconds()
        if age is not None:
            # Epoch lag: how stale the published epoch is, in wall seconds.
            registry.set_gauge("dsr_epoch_age_seconds", age)
        parts = [registry.to_prometheus(), global_registry().to_prometheus()]
        return "\n".join(part for part in parts if part)

    def close(self) -> None:
        """Drain the workers and detach the cache."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._workers:
                self._queue.put(None)
        for worker in self._workers:
            worker.join(timeout=5.0)
        # A worker wedged past its join timeout (e.g. stuck on a dead peer)
        # must be visible, not silently abandoned.
        _count_stuck_threads(self._workers, "DSRService.close")
        if self._background_epochs:
            # Let an in-flight epoch build finish so nothing runs after close.
            self.engine.wait_for_maintenance(timeout=5.0)
        if self.cache is not None:
            self.cache.detach()

    def __enter__(self) -> "DSRService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# blocking client
# ---------------------------------------------------------------------- #
class DSRClient:
    """Blocking client for :class:`~repro.service.aio.DSRAsyncServer`.

    Speaks the same binary frames as the async client, one request at a
    time on a plain socket.

    Timeouts and retries make a restarting server a bounded inconvenience
    instead of a hung caller:

    * ``connect_timeout`` bounds each TCP connect (defaults to ``timeout``);
    * ``request_timeout`` bounds each request's round trip — on expiry the
      connection is closed (the stream may be mid-frame, so it cannot be
      reused) and :class:`TimeoutError` is raised without retrying, because
      the server may still execute the request;
    * a connection reset or EOF mid-request is retried up to ``retries``
      times with a fresh connection and a short linear backoff, which rides
      out a server restart between requests.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 10.0,
        connect_timeout: Optional[float] = None,
        request_timeout: Optional[float] = None,
        retries: int = 2,
        retry_backoff_seconds: float = 0.05,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self._host = host
        self._port = port
        self._connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self._request_timeout = (
            request_timeout if request_timeout is not None else timeout
        )
        self._retries = retries
        self._retry_backoff_seconds = retry_backoff_seconds
        self._lock = threading.Lock()
        self._socket: Optional[socket.socket] = None
        self._reconnects = 0
        self._connect()

    def _connect(self) -> None:
        self._socket = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout
        )
        self._socket.settimeout(self._request_timeout)

    def _drop_connection(self) -> None:
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:
                pass
            self._socket = None

    def _recv_reply(self):
        """Read one reply frame; ``None`` when the server closed first."""
        # One request is in flight at a time, so one frame is all that can
        # arrive: no bytes outlive this call.
        inbound = bytearray()
        while (framed := unpack_frame(inbound)) is None:
            chunk = self._socket.recv(65536)
            if not chunk:
                return None
            inbound.extend(chunk)
        return framed[0]

    @property
    def reconnects(self) -> int:
        """How many times the client re-established its connection."""
        return self._reconnects

    def request(self, message):
        """Send one request message and return the response message.

        Only **idempotent** requests (queries, stats, snapshot, metrics)
        are re-sent after a failure that may have reached the server.  An
        :class:`UpdateRequest` that failed *after its send began* is never
        retried — the server may have applied it, and a blind re-send would
        risk applying the update twice.  An update whose connect failed
        before any bytes left is still safe to retry.
        """
        idempotent = not isinstance(message, UpdateRequest)
        frame = pack_frame(message)
        with self._lock:
            last_error: Optional[BaseException] = None
            for attempt in range(self._retries + 1):
                if attempt:
                    time.sleep(self._retry_backoff_seconds * attempt)
                sent = False
                try:
                    if self._socket is None:
                        self._connect()
                        self._reconnects += 1
                    # From here on bytes may reach the server even if we
                    # error out mid-call.
                    sent = True
                    self._socket.sendall(frame)
                    response = self._recv_reply()
                except ProtocolError:
                    # An unparseable reply leaves the stream unusable.
                    self._drop_connection()
                    raise
                except socket.timeout as exc:
                    # The stream may now be mid-frame and the server may
                    # still run the request — never retry, just fail fast.
                    self._drop_connection()
                    raise TimeoutError(
                        f"no response from {self._host}:{self._port} within "
                        f"{self._request_timeout}s"
                    ) from exc
                except (ConnectionError, OSError) as exc:
                    self._drop_connection()
                    if sent and not idempotent:
                        raise ConnectionError(
                            f"update request to {self._host}:{self._port} "
                            f"failed after it may have reached the server; "
                            f"not retrying (it could apply twice): {exc}"
                        ) from exc
                    last_error = exc
                    continue
                if response is None:
                    # EOF before a reply: the server went away (restart,
                    # shutdown) — retriable like a reset, but only for
                    # idempotent requests (the server may have applied an
                    # update before dying).
                    last_error = ConnectionResetError(
                        "server closed the connection before replying"
                    )
                    self._drop_connection()
                    if not idempotent:
                        raise ConnectionError(
                            f"update request to {self._host}:{self._port} "
                            f"got no reply; not retrying (it could apply "
                            f"twice): {last_error}"
                        ) from last_error
                    continue
                return response
            raise ConnectionError(
                f"request to {self._host}:{self._port} failed after "
                f"{self._retries + 1} attempt(s): {last_error}"
            ) from last_error

    # Convenience wrappers -------------------------------------------- #
    def query(
        self,
        sources,
        targets,
        direction: str = "auto",
        use_cache: bool = True,
        trace: bool = False,
        deadline_ms: Optional[float] = None,
    ):
        return self.request(
            QueryRequest(
                tuple(sources), tuple(targets), direction, use_cache,
                trace=trace, deadline_ms=deadline_ms,
            )
        )

    def insert_edge(self, u: int, v: int):
        return self.request(UpdateRequest("insert-edge", u, v))

    def delete_edge(self, u: int, v: int):
        return self.request(UpdateRequest("delete-edge", u, v))

    def delete_vertex(self, vertex: int):
        return self.request(UpdateRequest("delete-vertex", vertex))

    def flush(self):
        return self.request(UpdateRequest("flush"))

    def stats(self):
        return self.request(StatsRequest())

    def snapshot(self):
        return self.request(SnapshotRequest())

    def metrics(self):
        """Prometheus text exposition (:class:`MetricsResponse`)."""
        return self.request(MetricsRequest())

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "DSRClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "DSRClient",
    "DSRService",
    "ServiceMetrics",
    "ServiceOverloadedError",
]
