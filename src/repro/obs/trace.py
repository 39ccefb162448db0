"""Structured per-query tracing: a flat list of timed spans.

A :class:`QueryTrace` is created when a query carries
``ReachQuery(trace=True)`` and travels with the query through the service
and engine layers, collecting :class:`Span` records for every stage the
paper's cost model distinguishes: cache lookup, planning, the three DSR
steps (step 1 local evaluation, the single bridge exchange, step 3 remote
resolution), per-partition shard-task wall-clock, payload bytes, and
``StaleEpochError`` retries.

The model is deliberately flat — spans carry a name, a duration, an offset
from the trace origin, and free-form attributes — because the DSR pipeline
is a short fixed-shape DAG, not an arbitrary call tree.  Nesting is encoded
with dotted names (``step1.shard``), which keeps the wire format a
plain list of dicts that any protocol version can carry opaquely.

Traces serialise with :meth:`QueryTrace.to_dict` / :meth:`from_dict` so
they round-trip through the JSON wire protocol on
``QueryResponse.trace``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed (or instant) stage of a traced query."""

    name: str
    #: Wall-clock duration; 0.0 for instant events.
    seconds: float = 0.0
    #: Start offset relative to the trace origin.
    offset_seconds: float = 0.0
    #: Free-form JSON-safe details (partition ids, byte counts, epochs...).
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seconds": round(self.seconds, 9),
            "offset_seconds": round(self.offset_seconds, 9),
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Span":
        return cls(
            name=str(payload.get("name", "")),
            seconds=float(payload.get("seconds", 0.0)),
            offset_seconds=float(payload.get("offset_seconds", 0.0)),
            attrs=dict(payload.get("attrs", {}) or {}),
        )


class QueryTrace:
    """Ordered collection of spans for one query execution.

    Not thread-safe: a trace belongs to exactly one query, and the service
    executes a query on one worker thread.
    """

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self.spans: List[Span] = []
        #: Trace-level attributes (direction, epoch, sharded...).
        self.attrs: Dict[str, Any] = {}

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Time a block; the span is appended when the block exits."""
        start = time.perf_counter()
        span = Span(name=name, offset_seconds=start - self._origin, attrs=dict(attrs))
        try:
            yield span
        finally:
            span.seconds = time.perf_counter() - start
            self.spans.append(span)

    def add(self, name: str, seconds: float = 0.0, **attrs: Any) -> Span:
        """Append a pre-measured span (e.g. a worker's self-reported time)."""
        span = Span(
            name=name,
            seconds=seconds,
            offset_seconds=time.perf_counter() - self._origin,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    def event(self, name: str, **attrs: Any) -> Span:
        """Append an instant (zero-duration) marker, e.g. a stale-epoch retry."""
        return self.add(name, 0.0, **attrs)

    def merge_child(self, child: "QueryTrace") -> None:
        """Fold a child trace's spans and attributes in.

        The service uses this to splice the engine-level trace of a
        request's one engine run into the request-level trace.
        """
        self.spans.extend(child.spans)
        for key, value in child.attrs.items():
            self.attrs.setdefault(key, value)

    # ------------------------------------------------------------------ #
    # lookup helpers (used heavily by tests)
    # ------------------------------------------------------------------ #
    def find(self, name: str) -> Optional[Span]:
        """First span with exactly this name, or ``None``."""
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List[Span]:
        """Every span whose name equals ``name`` or starts with ``name.``."""
        return [
            span
            for span in self.spans
            if span.name == name or span.name.startswith(name + ".")
        ]

    def total_seconds(self) -> float:
        return time.perf_counter() - self._origin

    # ------------------------------------------------------------------ #
    # wire form
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "attrs": dict(self.attrs),
            "spans": [span.to_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "QueryTrace":
        trace = cls()
        trace.attrs = dict(payload.get("attrs", {}) or {})
        trace.spans = [Span.from_dict(item) for item in payload.get("spans", []) or []]
        return trace

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryTrace(spans={[s.name for s in self.spans]!r})"


__all__ = ["QueryTrace", "Span"]
