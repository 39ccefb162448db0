"""Online query service over the DSR engine.

Contract: the serving layer — plans each request's direction (the
engine's one rule: ``"auto"`` starts from the smaller distinct side when a
backward index exists), consults an exact-answer result cache wired to the
engine's update listeners, and executes on a thread-pool service exposed
in-process or over TCP (binary frames behind one async front door).  Sits
strictly above :mod:`repro.api` (see ``docs/ARCHITECTURE.md``).

The :mod:`repro.service` package is the serving layer of the reproduction: it
wraps a built :class:`~repro.core.engine.DSREngine` behind a planner, an
exact-answer result cache and a concurrent request loop, and exposes the
whole thing in-process or over a socket (:class:`DSRAsyncServer`).

>>> from repro.api import DSRConfig, ReachQuery, open_engine
>>> from repro.graph import generators
>>> from repro.service import DSRService
>>> graph = generators.social_graph(300, avg_degree=5, seed=1)
>>> service = DSRService(open_engine(graph, DSRConfig(num_partitions=3)))
>>> response = service.handle(ReachQuery((0, 1), (100, 200)))
>>> service.close()

The wire-form :class:`QueryRequest` is a thin serialisation of the same
:class:`~repro.api.query.ReachQuery` object, so in-process callers can submit
either.
"""

from repro.service.aio import DSRAsyncClient, DSRAsyncServer, RateLimitedError, TokenBucket
from repro.service.cache import CacheStats, ResultCache
from repro.service.planner import QueryPlan, QueryPlanner
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    ErrorResponse,
    OversizedFrameError,
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
)
from repro.service.server import (
    DSRClient,
    DSRService,
    ServiceMetrics,
    ServiceOverloadedError,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "OversizedFrameError",
    "DSRAsyncClient",
    "DSRAsyncServer",
    "RateLimitedError",
    "TokenBucket",
    "CacheStats",
    "ResultCache",
    "QueryPlan",
    "QueryPlanner",
    "ProtocolError",
    "QueryRequest",
    "QueryResponse",
    "UpdateRequest",
    "UpdateResponse",
    "StatsRequest",
    "StatsResponse",
    "SnapshotRequest",
    "SnapshotResponse",
    "MetricsRequest",
    "MetricsResponse",
    "ErrorResponse",
    "DSRClient",
    "DSRService",
    "ServiceMetrics",
    "ServiceOverloadedError",
]
