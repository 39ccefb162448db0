"""Order statistics and span arithmetic for the spine (no repro imports)."""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10


def _rank(count: int, percent: float) -> int:
    """Nearest rank (1-based) of ``percent`` among ``count`` samples."""
    # 99.9 / 100 * 10000 is 9990.000000000002 in floats; do not ceil that up.
    return max(1, math.ceil(percent * count / 100.0 - 1e-9))


def percentile(samples: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile (``percent`` in (0, 100]) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), percent) - 1]


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def supports(count: int, percent: float) -> bool:
    """True when ``count`` samples leave >= SAMPLES_BEYOND above ``percent``."""
    return count - _rank(count, percent) >= SAMPLES_BEYOND


def tail_percent(count: int, ladder: Sequence[float] = (99.9, 99.0, 95.0, 90.0, 75.0)) -> Optional[float]:
    """The highest percentile of ``ladder`` that ``count`` samples support."""
    for percent in ladder:
        if supports(count, percent):
            return percent
    return None


def trimmed_rate(operations: Sequence[int], seconds: Sequence[float], trim: float = 0.2) -> float:
    """Operations per second over slices, the slowest ``trim`` share dropped.

    Pooled, not a median of slice rates: a slice's own mix of cheap and
    dear requests moves its rate by more than the machine does.  Trimmed,
    because a slice that caught a stall would take a tenth off the total.
    """
    slices = sorted(zip(operations, seconds), key=lambda s: s[1] / s[0])
    kept = slices[: len(slices) - math.ceil(trim * len(slices))] or slices
    return sum(ops for ops, _ in kept) / sum(took for _, took in kept)


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; spans nest per thread.

    A span opened with ``adopt=True`` also becomes the parent of spans that
    other threads open while their own stack is empty — that is how the
    server-side ``handle`` span, which runs on a worker thread, hangs under
    the client-side round-trip span.  It is only sound with one request in
    flight, which is how the traced run drives.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.spans: List[Span] = []
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._adopted: Optional[int] = None
        self._request: Any = None

    def span(self, name: str, request: Any = None, adopt: bool = False) -> "_OpenSpan":
        return _OpenSpan(self, name, request, adopt)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with _OpenSpan(self, name, None, False):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def as_rows(self) -> List[Dict[str, Any]]:
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "request": s.request}
            for i, s in enumerate(self.spans)
        ]


class _OpenSpan:
    """Context manager of one span (a class, not a generator: it is on the
    timed path of sub-millisecond requests)."""

    __slots__ = ("_tracer", "_span", "_stack", "_adopt")

    def __init__(self, tracer: Tracer, name: str, request: Any, adopt: bool) -> None:
        self._tracer = tracer
        self._adopt = adopt
        self._span = Span(name, 0.0, 0.0, None, request)

    def __enter__(self) -> Span:
        tracer, span = self._tracer, self._span
        stack = getattr(tracer._local, "stack", None)
        if stack is None:
            stack = tracer._local.stack = []
        self._stack = stack
        span.parent = stack[-1] if stack else tracer._adopted
        if span.request is None:
            span.request = tracer._request
        with tracer._lock:
            index = len(tracer.spans)
            tracer.spans.append(span)
        stack.append(index)
        if self._adopt:
            tracer._adopted, tracer._request = index, span.request
        span.start = tracer._clock()
        return span

    def __exit__(self, *exc_info) -> None:
        tracer = self._tracer
        self._span.end = tracer._clock()
        self._stack.pop()
        if self._adopt:
            tracer._adopted, tracer._request = None, None


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part its direct children cover.

    Children of one parent may overlap (parallel shard tasks); the covered
    part is the union of their intervals clipped to the parent.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            lo, hi = max(span.start, parent.start), min(span.end, parent.end)
            if hi > lo:
                children.setdefault(span.parent, []).append((lo, hi))
    result = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for lo, hi in sorted(children.get(index, ())):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(span.duration - covered)
    return result


def per_request(spans: Sequence[Span], name: str) -> Dict[Any, float]:
    """Summed duration of the spans called ``name``, per request."""
    totals: Dict[Any, float] = {}
    for span in spans:
        if span.name == name:
            totals[span.request] = totals.get(span.request, 0.0) + span.duration
    return totals
