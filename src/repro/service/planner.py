"""Planning of DSR service queries: normalise the request, ask the engine.

A plan is the request's vertex sets, de-duplicated and sorted, plus the
processing direction (Section 3.3.2, "Forward vs. Backward Processing").
The direction comes from the engine's one rule,
:meth:`repro.core.engine.DSREngine.choose_direction`: ``"auto"`` starts from
the smaller side — backward iff the engine was built with
``enable_backward=True`` and the query has fewer distinct targets than
distinct sources — and an explicit direction passes through.  So an
``"auto"`` query goes the same way through the service, the wire and a
direct ``engine.run``.

Planning takes no lock and reads no graph or index state beyond whether
the backward index exists, so it never builds a snapshot.  The one-round
protocol evaluates ``S ⇝ T`` as a whole, so a request of any size is
answered by exactly one ``engine.run`` over the plan's ``sources`` /
``targets``: one captured epoch, one round of communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.api.query import ReachQuery
from repro.core.engine import DSREngine


@dataclass(frozen=True)
class QueryPlan:
    """An executable plan for one set-reachability request."""

    direction: str  # "forward" or "backward"
    #: The request's vertex sets, de-duplicated and sorted — what the one
    #: engine run of this plan is asked.
    sources: Tuple[int, ...]
    targets: Tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return not self.sources or not self.targets


class QueryPlanner:
    """Plans queries against one engine."""

    def __init__(self, engine: DSREngine) -> None:
        self.engine = engine

    def plan(self, query: ReachQuery) -> QueryPlan:
        """Build the :class:`QueryPlan` of one :class:`~repro.api.query.ReachQuery`."""
        if not isinstance(query, ReachQuery):
            raise TypeError(f"plan() takes a ReachQuery, got {type(query).__name__}")
        sources = tuple(sorted(set(query.sources)))
        targets = tuple(sorted(set(query.targets)))
        direction = self.engine.choose_direction(sources, targets, query.direction)
        return QueryPlan(direction=direction, sources=sources, targets=targets)


__all__ = ["QueryPlan", "QueryPlanner"]
