"""Wire protocol of the DSR query service.

Requests and responses are plain dataclasses so they can be passed to
:meth:`~repro.service.server.DSRService.handle` in-process without any
serialisation.  For remote clients the same messages travel over TCP as
binary length-prefixed frames: :func:`encode` / :func:`decode` map a message
to/from a JSON-safe dict tagged with its ``kind`` and the protocol
``version``, and :func:`pack_frame` / :func:`unpack_frame` put one such dict
in one frame.

The query message is not a parallel definition of the query shape:
:class:`QueryRequest` *is* a :class:`~repro.api.query.ReachQuery` (a subclass
that only translates validation failures into :class:`ProtocolError`), so
the service, the engine and the wire all share one query object.

The message set mirrors the things a client can do with a running engine:

* ``QueryRequest`` — a set-reachability query ``S ⇝ T`` (a serialised
  :class:`~repro.api.query.ReachQuery`);
* ``UpdateRequest`` — one incremental graph update (or an explicit flush);
* ``StatsRequest`` — the service's own serving metrics;
* ``SnapshotRequest`` — the simulated cluster's execution/communication
  counters (:meth:`SimulatedCluster.snapshot`);
* ``MetricsRequest`` — the combined metrics registries in Prometheus text
  exposition format.

Framing
-------
One framing, spoken by :class:`~repro.service.aio.DSRAsyncServer`,
:class:`~repro.service.aio.DSRAsyncClient` and the blocking
:class:`~repro.service.server.DSRClient`:
``[u32 length][u8 version][body]``, big-endian, where ``length`` covers the
version byte plus the body and the body is the tagged dict as UTF-8 JSON,
optionally carrying a connection-scoped integer request ``id`` so many
requests can be in flight on one connection (multiplexing).  Frames are
bounded: one above the cap raises :class:`OversizedFrameError` (a
:class:`ProtocolError`) from the header alone instead of buffering without
limit.  Bytes that are not a frame — a ``{"kind": ...}`` line from a
pre-framing peer, say — read as an absurd length and fail the same way.

Versioning
----------
Two versions are live: :data:`MIN_PROTOCOL_VERSION` (5, the first with binary
framing) and :data:`PROTOCOL_VERSION` (6, which adds the optional
``deadline_ms`` budget on query messages).  The frame header's version byte
is authoritative: a body without a ``version`` tag inherits it, a body whose
tag disagrees with it is a :class:`ProtocolError`, and so is any version
outside the live range.  A server answers each request at the version its
frame arrived at — :func:`encode` takes the target ``version`` and strips
the fields that version does not know (:data:`_VERSION_GATED_FIELDS`).
Dicts handed to :func:`decode` directly (no frame around them) may omit the
tag and are then treated as the current version.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

import json
import struct

from repro.api.query import ReachQuery

#: Version of the wire format emitted by :func:`encode` by default.  Bump
#: whenever the shape or meaning of a message changes.  Version 6 added the
#: optional ``deadline_ms`` end-to-end budget on query messages.
PROTOCOL_VERSION = 6

#: Oldest peer version this side still understands: the first version with
#: binary framing.  A version-5 peer never sees ``deadline_ms``.
MIN_PROTOCOL_VERSION = 5

#: Default cap on one binary frame (version byte + body).  Frames above the
#: cap are rejected with :class:`OversizedFrameError` before any buffering.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Update operations accepted by :class:`UpdateRequest`.
UPDATE_OPS = ("insert-edge", "delete-edge", "insert-vertex", "delete-vertex", "flush")


class ProtocolError(ValueError):
    """Raised when a message cannot be encoded or decoded."""


class OversizedFrameError(ProtocolError):
    """A frame exceeds the configured size cap.

    Servers treat this as a fatal per-connection error: the peer gets a
    clean ``error`` response naming the cap, then the connection closes —
    the alternative is buffering attacker-controlled bytes without bound.
    """


# ---------------------------------------------------------------------- #
# requests
# ---------------------------------------------------------------------- #
class QueryRequest(ReachQuery):
    """``S ⇝ T`` set-reachability query — the wire form of ``ReachQuery``.

    Identical fields and semantics; the only difference is that malformed
    values raise :class:`ProtocolError` (as every protocol message does)
    instead of the API-level ``QueryError``.
    """

    def __post_init__(self) -> None:
        try:
            super().__post_init__()
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc

    @classmethod
    def from_query(cls, query: ReachQuery) -> "QueryRequest":
        """Wrap a :class:`ReachQuery` for the wire (no-op on instances)."""
        if isinstance(query, cls):
            return query
        return cls(**{spec.name: getattr(query, spec.name) for spec in fields(query)})


@dataclass(frozen=True)
class UpdateRequest:
    """One incremental update against the served graph.

    ``op`` is one of :data:`UPDATE_OPS`; edge operations use ``u`` and ``v``,
    ``delete-vertex`` uses ``u``, ``insert-vertex`` optionally uses ``u`` (the
    requested vertex id) and ``partition_id``, and ``flush`` takes no
    arguments.
    """

    op: str
    u: Optional[int] = None
    v: Optional[int] = None
    partition_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in UPDATE_OPS:
            raise ProtocolError(f"unknown update op {self.op!r}")


@dataclass(frozen=True)
class StatsRequest:
    """Ask the service for its serving metrics."""


@dataclass(frozen=True)
class SnapshotRequest:
    """Ask the service for the cluster's *cumulative* execution snapshot.

    Counters cover everything since the index build (builds, maintenance
    flushes and every query — concurrent queries fold their exact counters
    in).  For per-query communication numbers read the per-response
    ``messages_sent`` / ``bytes_sent`` fields of :class:`QueryResponse`
    instead.
    """


@dataclass(frozen=True)
class MetricsRequest:
    """Ask the service for its metrics in Prometheus text exposition format.

    The reply combines the service's own serving
    registry with the process-global engine registry (see
    :mod:`repro.obs`), ready to be scraped or dumped to a terminal.
    """


# ---------------------------------------------------------------------- #
# responses
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class QueryResponse:
    """Answer to a :class:`QueryRequest`."""

    pairs: Tuple[Tuple[int, int], ...]
    cached: bool = False
    direction: str = "forward"
    #: Engine runs behind this answer: 1, or 0 for a cached/empty reply.
    num_batches: int = 1
    latency_seconds: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    #: Index epoch the answer is consistent with (-1 when unknown/legacy).
    epoch: int = -1
    #: Structured per-query trace as a JSON-safe dict
    #: (:meth:`repro.obs.trace.QueryTrace.to_dict`) when the query asked for
    #: one, else ``None``.
    trace: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "pairs", tuple(sorted(tuple(pair) for pair in self.pairs))
        )

    @property
    def query_trace(self):
        """The trace rebuilt as a :class:`~repro.obs.trace.QueryTrace`."""
        if self.trace is None:
            return None
        from repro.obs.trace import QueryTrace

        return QueryTrace.from_dict(self.trace)

    @property
    def pair_set(self) -> set:
        return set(self.pairs)


@dataclass(frozen=True)
class UpdateResponse:
    """Answer to an :class:`UpdateRequest`.

    For ``op="flush"``, ``structural_change`` says whether a new epoch was
    published and ``affected_partitions`` lists the partitions whose
    summaries it rebuilt (possibly none).
    """

    op: str
    structural_change: bool = False
    affected_partitions: Tuple[int, ...] = ()
    vertex: Optional[int] = None
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "affected_partitions", tuple(sorted(self.affected_partitions))
        )


@dataclass(frozen=True)
class StatsResponse:
    """Serving metrics (latency percentiles, cache hit rate, throughput)."""

    stats: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SnapshotResponse:
    """Cluster execution/communication counters."""

    snapshot: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class MetricsResponse:
    """Prometheus-style text exposition of the service's metrics registries."""

    text: str = ""


@dataclass(frozen=True)
class ErrorResponse:
    """Reported instead of a normal response when a request fails."""

    error: str
    message: str


_MESSAGE_TYPES = {
    "query": QueryRequest,
    "update": UpdateRequest,
    "stats": StatsRequest,
    "snapshot": SnapshotRequest,
    "metrics": MetricsRequest,
    "query-result": QueryResponse,
    "update-result": UpdateResponse,
    "stats-result": StatsResponse,
    "snapshot-result": SnapshotResponse,
    "metrics-result": MetricsResponse,
    "error": ErrorResponse,
}
_KIND_OF = {cls: kind for kind, cls in _MESSAGE_TYPES.items()}

#: Field names per message class, precomputed for :func:`encode`.  Every
#: message is a flat dataclass of JSON-safe values, so a shallow per-field
#: dict is equivalent to ``dataclasses.asdict`` minus its recursive
#: deepcopy — which dominated the serving hot path.
_FIELD_NAMES_OF = {
    cls: tuple(f.name for f in fields(cls)) for cls in _MESSAGE_TYPES.values()
}

#: Per-kind fields that only exist from a given protocol version on.
#: :func:`encode` strips them when targeting an older peer; :func:`decode`
#: tolerates their absence (they are all optional with defaults).
_VERSION_GATED_FIELDS = {
    "query": {"deadline_ms": 6},
}

#: Message types the service accepts as requests.  ``ReachQuery`` covers both
#: the wire-form :class:`QueryRequest` and plain API queries submitted
#: in-process.
REQUEST_TYPES = (
    ReachQuery,
    UpdateRequest,
    StatsRequest,
    SnapshotRequest,
    MetricsRequest,
)


# ---------------------------------------------------------------------- #
# dict encoding
# ---------------------------------------------------------------------- #
def _is_live_version(version: Any) -> bool:
    return (
        isinstance(version, int)
        and not isinstance(version, bool)
        and MIN_PROTOCOL_VERSION <= version <= PROTOCOL_VERSION
    )


def encode(message: Any, version: int = PROTOCOL_VERSION) -> Dict[str, Any]:
    """Encode a protocol message into a JSON-safe tagged dict.

    ``version`` selects the wire version to emit (a server answering an
    older client passes the client's version).  Fields the target version
    does not know are stripped.
    """
    if not _is_live_version(version):
        raise ProtocolError(
            f"cannot encode for protocol version {version!r}; this side "
            f"speaks versions {MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION}"
        )
    if type(message) is ReachQuery:
        # A plain API query is a valid query message: promote it to its wire
        # form so the kind lookup and round-tripping stay uniform.
        message = QueryRequest.from_query(message)
    kind = _KIND_OF.get(type(message))
    if kind is None:
        raise ProtocolError(f"not a protocol message: {type(message).__name__}")
    payload = {
        name: getattr(message, name) for name in _FIELD_NAMES_OF[type(message)]
    }
    for name, min_version in _VERSION_GATED_FIELDS.get(kind, {}).items():
        if version < min_version:
            payload.pop(name, None)
    payload["kind"] = kind
    payload["version"] = version
    return payload


def wire_version(payload: Dict[str, Any]) -> int:
    """The protocol version a tagged dict was encoded at.

    Dicts without a ``version`` tag are treated as the current version.
    Raises :class:`ProtocolError` for versions outside the supported range.
    """
    version = payload.get("version", PROTOCOL_VERSION) if isinstance(
        payload, dict
    ) else PROTOCOL_VERSION
    if not _is_live_version(version):
        raise ProtocolError(
            f"protocol version mismatch: peer speaks version {version!r}, "
            f"this side speaks versions "
            f"{MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION}"
        )
    return version


def decode(payload: Dict[str, Any]) -> Any:
    """Decode a tagged dict (as produced by :func:`encode`) into a message.

    Dicts carrying a ``version`` outside
    ``[MIN_PROTOCOL_VERSION, PROTOCOL_VERSION]`` are rejected; dicts
    without one are treated as the current version.
    """
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ProtocolError("message payload must be a dict with a 'kind' tag")
    wire_version(payload)
    kind = payload["kind"]
    cls = _MESSAGE_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ProtocolError(f"unknown message kind {kind!r}")
    known = {f.name for f in fields(cls)}
    kwargs = {name: value for name, value in payload.items() if name in known}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {kind!r} message: {exc}") from exc


# ---------------------------------------------------------------------- #
# framing ([u32 length][u8 version][JSON body])
# ---------------------------------------------------------------------- #
_FRAME_HEADER = struct.Struct(">IB")


def pack_frame(
    message: Any,
    version: int = PROTOCOL_VERSION,
    request_id: Optional[int] = None,
    max_frame_bytes: Optional[int] = None,
) -> bytes:
    """Encode one message as a binary length-prefixed frame.

    ``request_id`` tags the frame with a connection-scoped id (the ``id``
    key of the body) so responses can be matched to requests out of order —
    the multiplexing contract of the front door.

    ``max_frame_bytes`` mirrors the receiver-side cap of
    :func:`unpack_frame`: an encoded frame longer than the cap raises
    :class:`OversizedFrameError` *before* anything hits the wire, so a
    sender can substitute a typed error instead of shipping a frame the
    peer is guaranteed to reject (and kill the connection over).
    """
    payload = encode(message, version=version)
    if request_id is not None:
        payload["id"] = request_id
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if max_frame_bytes is not None and 1 + len(body) > max_frame_bytes:
        raise OversizedFrameError(
            f"encoded {type(message).__name__} frame of {1 + len(body)} bytes "
            f"exceeds the {max_frame_bytes}-byte cap"
        )
    return _FRAME_HEADER.pack(1 + len(body), version) + body


def unpack_frame(
    buffer, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Optional[Tuple[Any, int, Optional[int], int]]:
    """Parse one binary frame off the front of ``buffer`` (bytes-like).

    Returns ``(message, wire_version, request_id, bytes_consumed)``, or
    ``None`` when the buffer does not yet hold a complete frame (read more
    and retry).  Frames longer than ``max_frame_bytes`` raise
    :class:`OversizedFrameError` *from the header alone* — the oversized
    body is never buffered.  ``wire_version`` is the header's version byte:
    a body ``version`` tag that disagrees with it, a version outside the
    live range and a request ``id`` that is not an integer are all
    :class:`ProtocolError`.
    """
    if len(buffer) < _FRAME_HEADER.size:
        return None
    length, version = _FRAME_HEADER.unpack_from(buffer, 0)
    if length < 1:
        raise ProtocolError(f"invalid binary frame length {length}")
    if length > max_frame_bytes:
        raise OversizedFrameError(
            f"binary frame of {length} bytes exceeds the {max_frame_bytes}-byte cap"
        )
    if not _is_live_version(version):
        raise ProtocolError(
            f"protocol version mismatch: frame header claims version "
            f"{version}, this side speaks versions "
            f"{MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION}"
        )
    total = _FRAME_HEADER.size - 1 + length
    if len(buffer) < total:
        return None
    body = bytes(buffer[_FRAME_HEADER.size : total])
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integer
        # literals; RecursionError a body nested deeper than the parser goes.
        raise ProtocolError(f"invalid binary frame body: {exc}") from exc
    request_id: Optional[int] = None
    if isinstance(payload, dict):
        if payload.setdefault("version", version) != version:
            raise ProtocolError(
                f"protocol version mismatch: frame header claims version "
                f"{version}, its body version {payload['version']!r}"
            )
        request_id = payload.pop("id", None)
        if request_id is not None and (
            not isinstance(request_id, int) or isinstance(request_id, bool)
        ):
            raise ProtocolError(
                f"request id must be an integer, got {request_id!r}"
            )
    return decode(payload), version, request_id, total


__all__ = [
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "UPDATE_OPS",
    "ProtocolError",
    "OversizedFrameError",
    "QueryRequest",
    "UpdateRequest",
    "StatsRequest",
    "SnapshotRequest",
    "MetricsRequest",
    "QueryResponse",
    "UpdateResponse",
    "StatsResponse",
    "SnapshotResponse",
    "MetricsResponse",
    "ErrorResponse",
    "REQUEST_TYPES",
    "encode",
    "decode",
    "wire_version",
    "pack_frame",
    "unpack_frame",
]
