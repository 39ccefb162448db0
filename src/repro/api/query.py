"""The one query object every backend answers.

:class:`ReachQuery` is the first-class description of a set-reachability
query ``S ⇝ T``: the source and target vertex sets plus the execution options
that used to be spread positionally across the engine, the service planner
and the wire protocol.  Every backend opened through
:func:`repro.api.open_engine` takes a :class:`ReachQuery` and returns a
:class:`~repro.core.query.QueryResult`; the service layer's
``QueryRequest`` is a thin serialisation of this same class.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Mapping, Optional, Tuple

#: Processing directions accepted by :class:`ReachQuery`.
DIRECTIONS = ("auto", "forward", "backward")


class QueryError(ValueError):
    """Raised when a :class:`ReachQuery` is malformed."""


@dataclass(frozen=True)
class ReachQuery:
    """A set-reachability query ``S ⇝ T`` plus its execution options.

    Fields
    ------
    sources / targets:
        The query's source and target vertex ids (any iterable; normalised to
        tuples, order preserved).
    direction:
        ``"forward"`` starts at the sources, ``"backward"`` at the targets
        over the mirror index (Section 3.3.2, "Forward vs. Backward
        Processing").  ``"auto"`` starts from the smaller side: backward iff
        the mirror index is built and there are fewer distinct targets than
        distinct sources (:meth:`~repro.core.engine.DSREngine.choose_direction`,
        the one rule every surface asks).
    use_cache:
        Allow the serving layer to answer from its exact-result cache.
    trace:
        Collect a structured :class:`~repro.obs.trace.QueryTrace` of timed
        spans (cache lookup, planning, the three DSR steps, per-partition
        shard-task wall-clock, payload bytes, stale-epoch retries) and attach
        it to ``QueryResult.trace``.  Off by default — tracing costs a little
        bookkeeping per step.  Backends without tracing ignore it.
    tenant:
        Optional workload label (e.g. ``"analytics"``).  Tenants never change
        the answer; the async front door keys its per-tenant token buckets
        and SLO latency histograms on it.  Backends ignore it.
    deadline_ms:
        Optional end-to-end budget in milliseconds.  The clock starts at
        admission (service submit / direct engine call); once it runs out
        the query fails with a typed
        :class:`~repro.resilience.DeadlineExceededError` instead of
        queueing, retrying or waiting on a wedged worker indefinitely.
        ``None`` (the default) means no deadline.  The answer is never
        affected — a deadlined query either completes exactly or errors.
    """

    sources: Tuple[int, ...]
    targets: Tuple[int, ...]
    direction: str = "auto"
    use_cache: bool = True
    trace: bool = False
    tenant: Optional[str] = None
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "trace", bool(self.trace))
        if self.direction not in DIRECTIONS:
            raise QueryError(
                f"unknown query direction {self.direction!r}; "
                f"available: {', '.join(DIRECTIONS)}"
            )
        if self.tenant is not None and not isinstance(self.tenant, str):
            raise QueryError(
                f"tenant must be a string or None, got {self.tenant!r}"
            )
        if self.deadline_ms is not None and (
            not isinstance(self.deadline_ms, (int, float))
            or isinstance(self.deadline_ms, bool)
            or self.deadline_ms <= 0
        ):
            raise QueryError(
                f"deadline_ms must be a positive number or None, "
                f"got {self.deadline_ms!r}"
            )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        """True when the answer is trivially empty (no sources or targets)."""
        return not self.sources or not self.targets

    @property
    def num_pairs(self) -> int:
        """The ``|S| × |T|`` size of the query."""
        return len(self.sources) * len(self.targets)

    # ------------------------------------------------------------------ #
    # construction helpers / serialisation
    # ------------------------------------------------------------------ #
    @classmethod
    def single(cls, source: int, target: int, **options: Any) -> "ReachQuery":
        """The single-pair special case (Algorithm 1)."""
        return cls((source,), (target,), **options)

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-safe dict that :meth:`from_dict` accepts unchanged."""
        return {
            "sources": list(self.sources),
            "targets": list(self.targets),
            "direction": self.direction,
            "use_cache": self.use_cache,
            "trace": self.trace,
            "tenant": self.tenant,
            "deadline_ms": self.deadline_ms,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReachQuery":
        """Build a query from a dict, rejecting unknown keys."""
        if not isinstance(payload, Mapping):
            raise QueryError(
                f"query payload must be a mapping, got {type(payload).__name__}"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise QueryError(
                f"unknown query keys: {', '.join(unknown)}; "
                f"known keys: {', '.join(sorted(known))}"
            )
        missing = [name for name in ("sources", "targets") if name not in payload]
        if missing:
            raise QueryError(f"query payload is missing: {', '.join(missing)}")
        return cls(**dict(payload))


__all__ = [
    "DIRECTIONS",
    "QueryError",
    "ReachQuery",
]
