"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the single currency of the observability layer
(:mod:`repro.obs`): every instrumented component — the query pipeline, the
incremental maintainer, the shard workers, the serving layer — records into a
:class:`MetricsRegistry`, and every exposition surface (``DSRService.stats()``,
the ``metrics`` admin request, ``repro-dsr stats``) reads one.

Three metric kinds, all label-aware:

* **counters** — monotonically increasing floats (``inc``);
* **gauges** — last-write-wins floats (``set_gauge``);
* **histograms** — fixed-bucket latency/size distributions (``observe``)
  with percentile *estimation* (linear interpolation inside the bucket the
  rank falls into).  Fixed buckets are what makes worker-side histograms
  mergeable: two histograms over the same edges merge by adding bucket
  counts, exactly like counters.

Process-awareness
-----------------
A registry is process-local.  Worker processes (``executor="processes"``)
record into their own registry and periodically ship a :class:`MetricsDelta`
— a picklable snapshot-and-reset of everything recorded since the last ship —
piggybacked on shard-task replies; the master merges deltas with
:meth:`MetricsRegistry.absorb`, the same fold-into-cumulative-totals pattern
as :meth:`repro.cluster.network.Network.absorb`.  Counters and histogram
buckets add; gauges are last-write-wins.

Cost
----
Recording is a dict update under one lock.  Hot paths guard every call with
the registry's :attr:`~MetricsRegistry.enabled` flag (one attribute read), so
a disabled registry costs a single branch per call site.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default histogram bucket upper edges (seconds): tuned for query/flush
#: latencies from sub-millisecond cache hits to multi-second maintenance.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: A metric's identity: its name plus its sorted ``(label, value)`` pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Mapping[str, Any]) -> MetricKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


def _render_key(key: MetricKey) -> str:
    """``name{label="value",...}`` — the Prometheus series notation."""
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f'{label}="{value}"' for label, value in labels)
    return f"{name}{{{inner}}}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(round(value, 9))


@dataclass
class _Histogram:
    """Bucket counts + sum for one histogram series (not thread-safe itself)."""

    buckets: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)  # len(buckets) + 1 (+Inf)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        index = len(self.buckets)
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1

    def merge(self, buckets: Sequence[float], counts: Sequence[int], total: float) -> None:
        if tuple(buckets) != self.buckets:
            # Mismatched edges cannot be merged bucket-wise; fold the other
            # side's mass into the overflow so counts/sums stay exact even if
            # the shape degrades (never silently drop observations).
            self.counts[-1] += sum(counts)
        else:
            for i, c in enumerate(counts):
                self.counts[i] += c
        self.total += total
        self.count += sum(counts)

    def percentile(self, percent: float) -> float:
        """Estimated percentile: linear interpolation inside the rank's bucket."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(percent / 100.0 * self.count))
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.buckets[i - 1] if i > 0 else 0.0
                upper = self.buckets[i] if i < len(self.buckets) else self.buckets[-1]
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return self.buckets[-1] if self.buckets else 0.0


@dataclass
class MetricsDelta:
    """Picklable snapshot of one registry's state since the last collect.

    Shipped from worker processes to the master piggybacked on shard-task
    replies and folded in with :meth:`MetricsRegistry.absorb`.
    """

    counters: Dict[MetricKey, float] = field(default_factory=dict)
    gauges: Dict[MetricKey, float] = field(default_factory=dict)
    #: ``key -> (bucket_edges, bucket_counts, sum)``
    histograms: Dict[MetricKey, Tuple[Tuple[float, ...], Tuple[int, ...], float]] = field(
        default_factory=dict
    )

    @property
    def is_empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)


class MetricsRegistry:
    """Thread-safe, label-aware metric store with delta shipping."""

    def __init__(self, enabled: bool = True) -> None:
        #: One cheap flag guards every hot-path call site; flipping it off
        #: reduces instrumentation to a single branch per recording point.
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, _Histogram] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def inc(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        """Increment a counter (creating the series at 0 if new)."""
        if not self.enabled:
            return
        key = _key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge to ``value`` (last write wins, also across absorbs)."""
        if not self.enabled:
            return
        key = _key(name, labels)
        with self._lock:
            self._gauges[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> None:
        """Record one histogram observation."""
        if not self.enabled:
            return
        key = _key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = _Histogram(
                    buckets=tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
                )
                self._histograms[key] = histogram
            histogram.observe(value)

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(_key(name, labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter across all label combinations."""
        with self._lock:
            return sum(
                value for (series, _), value in (
                    ((k[0], k[1]), v) for k, v in self._counters.items()
                ) if series == name
            )

    def gauge_value(self, name: str, **labels: Any) -> Optional[float]:
        with self._lock:
            return self._gauges.get(_key(name, labels))

    def histogram_count(self, name: str, **labels: Any) -> int:
        with self._lock:
            histogram = self._histograms.get(_key(name, labels))
            return histogram.count if histogram is not None else 0

    def histogram_sum(self, name: str, **labels: Any) -> float:
        with self._lock:
            histogram = self._histograms.get(_key(name, labels))
            return histogram.total if histogram is not None else 0.0

    def percentile(self, name: str, percent: float, **labels: Any) -> float:
        """Estimated percentile of one histogram series (0.0 if unseen)."""
        with self._lock:
            histogram = self._histograms.get(_key(name, labels))
            return histogram.percentile(percent) if histogram is not None else 0.0

    def label_values(self, name: str, label: str) -> Tuple[str, ...]:
        """Sorted distinct values ``label`` takes across one histogram's series."""
        with self._lock:
            return tuple(sorted({
                value
                for series, labels in self._histograms
                if series == name
                for key, value in labels
                if key == label
            }))

    # ------------------------------------------------------------------ #
    # delta shipping (worker → master)
    # ------------------------------------------------------------------ #
    def collect_delta(self) -> Optional[MetricsDelta]:
        """Snapshot-and-reset everything recorded since the last collect.

        Returns ``None`` when nothing was recorded, so callers piggybacking
        deltas on replies can skip the payload entirely.
        """
        with self._lock:
            if not (self._counters or self._gauges or self._histograms):
                return None
            delta = MetricsDelta(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    key: (h.buckets, tuple(h.counts), h.total)
                    for key, h in self._histograms.items()
                },
            )
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        return delta

    def absorb(self, delta: MetricsDelta) -> None:
        """Fold a shipped delta into this registry (counters/buckets add)."""
        if delta is None or delta.is_empty:
            return
        with self._lock:
            for key, value in delta.counters.items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            self._gauges.update(delta.gauges)
            for key, (buckets, counts, total) in delta.histograms.items():
                histogram = self._histograms.get(key)
                if histogram is None:
                    histogram = _Histogram(buckets=tuple(buckets))
                    self._histograms[key] = histogram
                histogram.merge(buckets, counts, total)

    def reset(self) -> None:
        """Drop every recorded series (worker processes call this at start)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe summary: counters/gauges verbatim, histograms digested."""
        with self._lock:
            counters = {_render_key(k): v for k, v in sorted(self._counters.items())}
            gauges = {_render_key(k): v for k, v in sorted(self._gauges.items())}
            histograms = {
                _render_key(k): {
                    "count": h.count,
                    "sum": round(h.total, 9),
                    "p50": round(h.percentile(50), 9),
                    "p95": round(h.percentile(95), 9),
                    "p99": round(h.percentile(99), 9),
                }
                for k, h in sorted(self._histograms.items())
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def to_prometheus(self) -> str:
        """Render every series in the Prometheus text exposition format."""
        lines: List[str] = []
        with self._lock:
            counter_names = sorted({k[0] for k in self._counters})
            for name in counter_names:
                lines.append(f"# TYPE {name} counter")
                for key in sorted(k for k in self._counters if k[0] == name):
                    lines.append(
                        f"{_render_key(key)} {_format_value(self._counters[key])}"
                    )
            gauge_names = sorted({k[0] for k in self._gauges})
            for name in gauge_names:
                lines.append(f"# TYPE {name} gauge")
                for key in sorted(k for k in self._gauges if k[0] == name):
                    lines.append(
                        f"{_render_key(key)} {_format_value(self._gauges[key])}"
                    )
            histogram_names = sorted({k[0] for k in self._histograms})
            for name in histogram_names:
                lines.append(f"# TYPE {name} histogram")
                for key in sorted(k for k in self._histograms if k[0] == name):
                    histogram = self._histograms[key]
                    _, labels = key
                    cumulative = 0
                    for i, edge in enumerate(histogram.buckets):
                        cumulative += histogram.counts[i]
                        bucket_key = (f"{name}_bucket", labels + (("le", repr(edge)),))
                        lines.append(f"{_render_key(bucket_key)} {cumulative}")
                    bucket_key = (f"{name}_bucket", labels + (("le", "+Inf"),))
                    lines.append(f"{_render_key(bucket_key)} {histogram.count}")
                    sum_key = (f"{name}_sum", labels)
                    count_key = (f"{name}_count", labels)
                    lines.append(f"{_render_key(sum_key)} {_format_value(histogram.total)}")
                    lines.append(f"{_render_key(count_key)} {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")


__all__ = [
    "DEFAULT_BUCKETS",
    "MetricKey",
    "MetricsDelta",
    "MetricsRegistry",
]
