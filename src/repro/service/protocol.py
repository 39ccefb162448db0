"""Wire protocol of the DSR query service.

Requests and responses are plain dataclasses so they can be passed to
:meth:`~repro.service.server.DSRService.handle` in-process without any
serialisation.  For remote clients the same messages travel over a local
socket as newline-delimited JSON: :func:`encode` / :func:`decode` map a
message to/from a JSON-safe dict tagged with its ``kind`` and the protocol
``version``, and :func:`send_message` / :func:`recv_message` frame one
message per line on a file-like stream.

The query message is not a parallel definition of the query shape: since
protocol version 2, :class:`QueryRequest` *is* a
:class:`~repro.api.query.ReachQuery` (a subclass that only translates
validation failures into :class:`ProtocolError`), so the service, the engine
and the wire all share one query object.

The message set mirrors the four things a client can do with a running
engine:

* ``QueryRequest`` — a set-reachability query ``S ⇝ T`` (a serialised
  :class:`~repro.api.query.ReachQuery`);
* ``UpdateRequest`` — one incremental graph update (or an explicit flush);
* ``StatsRequest`` — the service's own serving metrics;
* ``SnapshotRequest`` — the simulated cluster's execution/communication
  counters (:meth:`SimulatedCluster.snapshot`);
* ``MetricsRequest`` — the combined metrics registries in Prometheus text
  exposition format (protocol version 3+).

Versioning
----------
Every encoded frame carries a ``version`` tag (:data:`PROTOCOL_VERSION`).
Since version 3 the protocol negotiates per-frame: :func:`decode` accepts any
version in ``[MIN_PROTOCOL_VERSION, PROTOCOL_VERSION]`` (and reports the
frame's version through :func:`wire_version` / :func:`recv_message_versioned`
so a server can answer at the client's version), while :func:`encode` takes a
target ``version`` and strips fields the older peer does not know
(:data:`_VERSION_GATED_FIELDS`).  Frames outside the supported range are
rejected with a clear :class:`ProtocolError`, so the wire format can evolve
without silent misinterpretation.  Frames without a ``version`` tag
(hand-rolled payloads, pre-versioning peers) are accepted and treated as the
current version.

Framing
-------
Two stream framings carry the same tagged dicts:

* **newline-delimited JSON** (:func:`send_message` / :func:`recv_message`) —
  one JSON object per line; every protocol version speaks it, and it stays
  the compatibility path for old peers;
* **binary length-prefixed frames** (:func:`pack_frame` /
  :func:`unpack_frame`) — ``[u32 length][u8 version][body]`` where ``length``
  covers the version byte plus the body and the body is the same JSON
  payload, optionally tagged with a connection-scoped request ``id`` so many
  requests can be in flight on one connection (multiplexing).  Binary framing
  is a *capability of protocol version 5+*
  (:data:`BINARY_FRAMING_MIN_VERSION`): the async front door
  (:mod:`repro.service.aio`) speaks it natively and auto-detects old
  newline-JSON peers from the first byte.

Both framings are bounded: oversized frames/lines raise
:class:`OversizedFrameError` (a :class:`ProtocolError`) instead of buffering
without limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional, Tuple

import json
import struct

from repro.api.query import ReachQuery

#: Version of the wire format emitted by :func:`encode` by default.  Bump
#: whenever the shape or meaning of a message changes.  Version 1 was the
#: unversioned pre-``repro.api`` format; version 2 serialises
#: :class:`~repro.api.query.ReachQuery` as the query message; version 3 adds
#: the optional ``trace`` fields on query messages and the ``metrics``
#: exposition request; version 4 adds the optional ``tenant`` label on query
#: messages (the fleet router's workload fingerprint); version 5 adds the
#: binary length-prefixed framing capability (with per-frame request ids)
#: spoken by the async front door; version 6 adds the optional
#: ``deadline_ms`` end-to-end budget on query messages.
PROTOCOL_VERSION = 6

#: Oldest peer version this side still understands.  Version-2 and -3 peers
#: simply never see the later additions (all of which are optional fields or
#: new message kinds).
MIN_PROTOCOL_VERSION = 2

#: First protocol version whose peers may speak the binary length-prefixed
#: framing.  Older peers keep speaking newline-delimited JSON; a version-5
#: server accepts both on the same port.
BINARY_FRAMING_MIN_VERSION = 5

#: Default cap on one binary frame (version byte + body).  Frames above the
#: cap are rejected with :class:`OversizedFrameError` before any buffering.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Default cap on one newline-JSON line.  Connections exceeding it get a
#: clean protocol error instead of growing an unbounded read buffer.
MAX_LINE_BYTES = 1024 * 1024

#: Update operations accepted by :class:`UpdateRequest`.
UPDATE_OPS = ("insert-edge", "delete-edge", "insert-vertex", "delete-vertex", "flush")


class ProtocolError(ValueError):
    """Raised when a message cannot be encoded or decoded."""


class OversizedFrameError(ProtocolError):
    """A frame (binary) or line (JSON) exceeds the configured size cap.

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

    Protocol version 3+.  The reply combines the service's own serving
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
    #: one, else ``None``.  Protocol version 3+; stripped for older peers.
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
    """Answer to an :class:`UpdateRequest`."""

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

#: First protocol version that knows each message kind.  Kinds absent here
#: exist since the first versioned protocol.
_KIND_MIN_VERSION = {
    "metrics": 3,
    "metrics-result": 3,
}

#: Per-kind fields that only exist from a given protocol version on.
#: :func:`encode` strips them when targeting an older peer; :func:`decode`
#: tolerates their absence (they are all optional with defaults).
_VERSION_GATED_FIELDS = {
    "query": {"trace": 3, "tenant": 4, "deadline_ms": 6},
    "query-result": {"trace": 3},
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
# JSON encoding
# ---------------------------------------------------------------------- #
def _check_target_version(version: int) -> None:
    if not isinstance(version, int) or isinstance(version, bool) or not (
        MIN_PROTOCOL_VERSION <= version <= PROTOCOL_VERSION
    ):
        raise ProtocolError(
            f"cannot encode for protocol version {version!r}; this side "
            f"speaks versions {MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION}"
        )


def encode(message: Any, version: int = PROTOCOL_VERSION) -> Dict[str, Any]:
    """Encode a protocol message into a JSON-safe tagged dict.

    ``version`` selects the wire version to emit (a server answering an
    older client passes the client's version).  Fields the target version
    does not know are stripped; message kinds it does not know raise.
    """
    _check_target_version(version)
    if type(message) is ReachQuery:
        # A plain API query is a valid query message: promote it to its wire
        # form so the kind lookup and round-tripping stay uniform.
        message = QueryRequest.from_query(message)
    kind = _KIND_OF.get(type(message))
    if kind is None:
        raise ProtocolError(f"not a protocol message: {type(message).__name__}")
    if version < _KIND_MIN_VERSION.get(kind, MIN_PROTOCOL_VERSION):
        raise ProtocolError(
            f"message kind {kind!r} requires protocol version "
            f"{_KIND_MIN_VERSION[kind]}, encoding for version {version}"
        )
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

    Frames without a ``version`` tag are treated as the current version.
    Raises :class:`ProtocolError` for versions outside the supported range.
    """
    version = payload.get("version", PROTOCOL_VERSION) if isinstance(
        payload, dict
    ) else PROTOCOL_VERSION
    if (
        not isinstance(version, int)
        or isinstance(version, bool)
        or not (MIN_PROTOCOL_VERSION <= version <= PROTOCOL_VERSION)
    ):
        raise ProtocolError(
            f"protocol version mismatch: peer speaks version {version!r}, "
            f"this side speaks versions "
            f"{MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION}"
        )
    return version


def decode(payload: Dict[str, Any]) -> Any:
    """Decode a tagged dict (as produced by :func:`encode`) into a message.

    Frames carrying a ``version`` outside
    ``[MIN_PROTOCOL_VERSION, PROTOCOL_VERSION]`` are rejected; frames
    without one are treated as the current version.
    """
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ProtocolError("message payload must be a dict with a 'kind' tag")
    version = wire_version(payload)
    kind = payload["kind"]
    cls = _MESSAGE_TYPES.get(kind)
    if cls is None:
        raise ProtocolError(f"unknown message kind {kind!r}")
    if version < _KIND_MIN_VERSION.get(kind, MIN_PROTOCOL_VERSION):
        raise ProtocolError(
            f"message kind {kind!r} requires protocol version "
            f"{_KIND_MIN_VERSION[kind]}, frame claims version {version}"
        )
    known = {f.name for f in fields(cls)}
    kwargs = {name: value for name, value in payload.items() if name in known}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {kind!r} message: {exc}") from exc


def dumps(message: Any, version: int = PROTOCOL_VERSION) -> str:
    """Serialise one message to a single JSON line (no trailing newline)."""
    return json.dumps(encode(message, version=version), separators=(",", ":"))


def loads(line: str) -> Any:
    """Parse one JSON line back into a protocol message."""
    return loads_versioned(line)[0]


def loads_versioned(line: str) -> Tuple[Any, int]:
    """Parse one JSON line into ``(message, wire_version)``."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    message = decode(payload)
    return message, wire_version(payload)


# ---------------------------------------------------------------------- #
# stream framing (newline-delimited JSON)
# ---------------------------------------------------------------------- #
def send_message(stream, message: Any, version: int = PROTOCOL_VERSION) -> None:
    """Write one message to a text-mode file-like stream and flush."""
    stream.write(dumps(message, version=version) + "\n")
    stream.flush()


def recv_message(stream) -> Optional[Any]:
    """Read one message from a text-mode stream; ``None`` at end of stream."""
    framed = recv_message_versioned(stream)
    return None if framed is None else framed[0]


def recv_message_versioned(
    stream, max_bytes: Optional[int] = None
) -> Optional[Tuple[Any, int]]:
    """Read one message plus the wire version its frame was encoded at.

    Servers use the version to answer each client at the version it spoke
    (:func:`send_message` with ``version=...``).  ``None`` at end of stream.
    ``max_bytes`` caps the line length: a longer line raises
    :class:`OversizedFrameError` instead of buffering the rest of the frame
    (the stream is then mid-frame, so callers should close the connection).
    """
    line = stream.readline() if max_bytes is None else stream.readline(max_bytes)
    if not line:
        return None
    if max_bytes is not None and len(line) >= max_bytes and not line.endswith("\n"):
        raise OversizedFrameError(
            f"line frame exceeds the {max_bytes}-byte cap"
        )
    line = line.strip()
    if not line:
        return None
    return loads_versioned(line)


# ---------------------------------------------------------------------- #
# binary framing ([u32 length][u8 version][JSON body]) — protocol v5+
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
    the multiplexing contract of the async front door.  Binary framing is a
    version-5 capability; asking for an older ``version`` raises.

    ``max_frame_bytes`` mirrors the receiver-side cap of
    :func:`unpack_frame`: an encoded frame longer than the cap raises
    :class:`OversizedFrameError` *before* anything hits the wire, so a
    sender can substitute a typed error instead of shipping a frame the
    peer is guaranteed to reject (and kill the connection over).
    """
    if version < BINARY_FRAMING_MIN_VERSION:
        raise ProtocolError(
            f"binary framing requires protocol version "
            f"{BINARY_FRAMING_MIN_VERSION}+, encoding for version {version}"
        )
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
    body is never buffered.
    """
    if len(buffer) < _FRAME_HEADER.size:
        return None
    length, version_byte = _FRAME_HEADER.unpack_from(buffer, 0)
    if length < 1:
        raise ProtocolError(f"invalid binary frame length {length}")
    if length > max_frame_bytes:
        raise OversizedFrameError(
            f"binary frame of {length} bytes exceeds the {max_frame_bytes}-byte cap"
        )
    if version_byte < BINARY_FRAMING_MIN_VERSION:
        raise ProtocolError(
            f"binary framing requires protocol version "
            f"{BINARY_FRAMING_MIN_VERSION}+, frame claims version {version_byte}"
        )
    total = _FRAME_HEADER.size - 1 + length
    if len(buffer) < total:
        return None
    body = bytes(buffer[_FRAME_HEADER.size : total])
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid binary frame body: {exc}") from exc
    request_id: Optional[int] = None
    if isinstance(payload, dict):
        payload.setdefault("version", version_byte)
        request_id = payload.pop("id", None)
    message = decode(payload)
    return message, wire_version(payload), request_id, total


__all__ = [
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "BINARY_FRAMING_MIN_VERSION",
    "MAX_FRAME_BYTES",
    "MAX_LINE_BYTES",
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
    "dumps",
    "loads",
    "loads_versioned",
    "send_message",
    "recv_message",
    "recv_message_versioned",
    "pack_frame",
    "unpack_frame",
]
