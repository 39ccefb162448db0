"""Cost-based planning of DSR service queries.

The planner decides, per request, *how* a set-reachability query should hit
the engine:

* **Direction** (Section 3.3.2, "Forward vs. Backward Processing").  A
  forward query starts one local traversal per source and ships handles of
  partitions that hold unresolved targets; a backward query mirrors this from
  the target side.  The planner weighs both using the query cardinalities and
  the index's boundary statistics: partitions with many forward entry handles
  make forward traversals touch more virtual vertices, and symmetrically for
  backward entries.  The per-vertex traversal cost is scaled by the data
  graph's average degree, read from the cached CSR snapshot's degree
  statistics (:meth:`repro.graph.csr.CSRGraph.degree_stats`) rather than
  recomputed per query; planning runs outside the service's engine lock, so
  the planner never *builds* a snapshot and falls back to the graph's O(1)
  counters when none is cached.  The backward direction is only eligible
  when the engine was built with ``enable_backward=True``.

Direction is all a plan decides.  The one-round protocol evaluates ``S ⇝ T``
as a whole, so a request of any size is answered by exactly one
``engine.run`` over the plan's de-duplicated ``sources`` / ``targets``: one
captured epoch, one round of communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Tuple

from repro.api.query import ReachQuery, as_reach_query
from repro.core.engine import DSREngine


@dataclass(frozen=True)
class QueryPlan:
    """An executable plan for one set-reachability request."""

    direction: str  # "forward" or "backward"
    #: The request's vertex sets, de-duplicated and sorted — what the one
    #: engine run of this plan is asked.
    sources: Tuple[int, ...]
    targets: Tuple[int, ...]
    estimated_cost: float
    reason: str
    #: The index epoch whose statistics informed this plan (-1 pre-build).
    #: Planning never takes the engine lock: the cost model reads one
    #: published epoch state, so a concurrent background flush can at worst
    #: make a plan one epoch stale — never torn.
    epoch: int = -1

    @property
    def is_empty(self) -> bool:
        return not self.sources or not self.targets


class QueryPlanner:
    """Chooses the processing direction for queries against one engine."""

    def __init__(self, engine: DSREngine) -> None:
        self.engine = engine
        #: (epoch_state, stats) memo for :meth:`_entry_stats`.  Epoch states
        #: are immutable, so identity is a sound cache key; the memo spares
        #: every :meth:`plan` a walk over all partition summaries.
        self._entry_stats_memo: Optional[Tuple[Any, Tuple[float, float]]] = None

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def _entry_stats(self) -> Tuple[float, float]:
        """Average forward/backward entry handles per partition.

        Computed once per published epoch state and memoised: the walk over
        every partition summary is far too slow to repeat for every planned
        query between epoch swaps.  A racing recompute is benign — both threads derive the same value
        from the same immutable state.
        """
        index = self.engine.index
        if not index.is_built:
            return 1.0, 1.0
        state = index.current_state()
        memo = self._entry_stats_memo
        if memo is not None and memo[0] is state:
            return memo[1]
        summaries = state.summaries
        forward = sum(len(s.forward_handles()) for s in summaries.values())
        backward = sum(len(s.backward_handles()) for s in summaries.values())
        num_partitions = max(1, index.num_partitions)
        stats = (forward / num_partitions, backward / num_partitions)
        self._entry_stats_memo = (state, stats)
        return stats

    def _edge_factor(self) -> float:
        """Per-frontier-vertex expansion cost, from CSR degree statistics.

        Read off the data graph's cached :class:`~repro.graph.csr.CSRGraph`
        snapshot when one is live: the stats are computed once per snapshot
        and reused for every planned query, instead of being recomputed per
        request.  Planning runs *outside* the service's engine lock, so this
        deliberately never **builds** a snapshot (building iterates the live
        adjacency and would race concurrent updates); with no snapshot
        cached it falls back to the graph's O(1) vertex/edge counters, which
        yield the same average degree.
        """
        snapshot = self.engine.graph.csr_if_cached()
        if snapshot is not None:
            return 1.0 + snapshot.degree_stats()["avg_degree"]
        num_vertices = self.engine.graph.num_vertices
        if not num_vertices:
            return 1.0
        return 1.0 + self.engine.graph.num_edges / num_vertices

    def estimate_cost(self, num_sources: int, num_targets: int, direction: str) -> float:
        """Relative cost of one engine call in the given direction.

        The dominant step-1 work is one multi-source traversal from the query
        side it starts at: per frontier vertex it pays the graph's average
        degree (CSR degree statistics), over a compound graph whose
        virtual-vertex count scales with the entry handles of the *opposite*
        side's partitions; the step-3 work scales with the other cardinality.
        """
        forward_entries, backward_entries = self._entry_stats()
        edge_factor = self._edge_factor()
        if direction == "backward":
            return num_targets * (1.0 + forward_entries) * edge_factor + num_sources
        return num_sources * (1.0 + backward_entries) * edge_factor + num_targets

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #
    def plan(
        self,
        sources: "ReachQuery | Iterable[int]",
        targets: Optional[Iterable[int]] = None,
        direction: Optional[str] = None,
    ) -> QueryPlan:
        """Build a :class:`QueryPlan` for ``S ⇝ T``.

        Accepts either one :class:`~repro.api.query.ReachQuery` or the legacy
        positional ``(sources, targets, direction)`` spread.
        """
        query = as_reach_query(sources, targets, direction)
        direction = query.direction
        source_list = tuple(sorted(set(query.sources)))
        target_list = tuple(sorted(set(query.targets)))
        plan_epoch = self.engine.index.epoch
        if not source_list or not target_list:
            return QueryPlan(
                direction="forward",
                sources=source_list,
                targets=target_list,
                estimated_cost=0.0,
                reason="empty source or target set",
                epoch=plan_epoch,
            )

        backward_available = self.engine.enable_backward and self.engine.is_built
        if direction == "auto":
            forward_cost = self.estimate_cost(
                len(source_list), len(target_list), "forward"
            )
            if backward_available:
                backward_cost = self.estimate_cost(
                    len(source_list), len(target_list), "backward"
                )
                if backward_cost < forward_cost:
                    chosen, cost = "backward", backward_cost
                    reason = (
                        f"auto: backward {backward_cost:.1f} < forward {forward_cost:.1f}"
                    )
                else:
                    chosen, cost = "forward", forward_cost
                    reason = (
                        f"auto: forward {forward_cost:.1f} <= backward {backward_cost:.1f}"
                    )
            else:
                chosen, cost = "forward", forward_cost
                reason = "auto: backward index not available"
        else:
            chosen = direction
            cost = self.estimate_cost(len(source_list), len(target_list), chosen)
            reason = f"explicit {chosen} request"

        return QueryPlan(
            direction=chosen,
            sources=source_list,
            targets=target_list,
            estimated_cost=cost,
            reason=reason,
            epoch=plan_epoch,
        )


__all__ = ["QueryPlan", "QueryPlanner"]
