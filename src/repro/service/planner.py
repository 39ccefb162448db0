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

* **Batching.**  The one-round protocol evaluates ``S ⇝ T`` as a whole, and
  its local phases grow with ``|S|`` (traversal frontiers) while the answer
  can grow with ``|S| · |T|``.  For very large requests the planner splits the
  bigger side of the query into chunks so that no single engine call exceeds
  ``max_batch_pairs`` source×target pairs, keeping per-call latency (and the
  window during which the engine lock is held) bounded.  Splitting only one
  side keeps the decomposition lossless::

      S ⇝ T  =  ⋃_i (S_i ⇝ T)        (S = ⊎ S_i)

  so :meth:`QueryPlanner.merge` is a plain union of the per-batch pair sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Set, Tuple

from repro.api.query import ReachQuery, as_reach_query
from repro.core.engine import DSREngine
from repro.reachability.factory import strategy_class


@dataclass(frozen=True)
class QueryPlan:
    """An executable plan for one set-reachability request."""

    direction: str  # "forward" or "backward"
    batches: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]
    estimated_cost: float
    reason: str
    split_axis: str = "none"  # "none" | "sources" | "targets"
    #: The index epoch whose statistics informed this plan (-1 pre-build).
    #: Planning never takes the engine lock: the cost model reads one
    #: published epoch state, so a concurrent background flush can at worst
    #: make a plan one epoch stale — never torn.
    epoch: int = -1

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def is_empty(self) -> bool:
        return not self.batches


class QueryPlanner:
    """Chooses direction and batching for queries against one engine."""

    def __init__(self, engine: DSREngine, max_batch_pairs: int = 4096) -> None:
        if max_batch_pairs < 1:
            raise ValueError("max_batch_pairs must be positive")
        self.engine = engine
        self.max_batch_pairs = max_batch_pairs
        #: (epoch_state, stats) memo for :meth:`_entry_stats`.  Epoch states
        #: are immutable, so identity is a sound cache key; a cost-routed
        #: fleet prices every query on several planners, which made the
        #: per-call summary walk the dominant routing cost.
        self._entry_stats_memo: Optional[Tuple[Any, Tuple[float, float]]] = None

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def _entry_stats(self) -> Tuple[float, float]:
        """Average forward/backward entry handles per partition.

        Computed once per published epoch state and memoised: the walk over
        every partition summary is far too slow to repeat on each of the
        thousands of cost estimates a router issues between epoch swaps.
        A racing recompute is benign — both threads derive the same value
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

    def estimate_query_cost(
        self, query: ReachQuery, local_index: Optional[str] = None
    ) -> float:
        """Modeled cost of answering ``query`` on this planner's engine.

        This is the **stable public cost entry point** for routers and
        tuners — the one place where the planner's traversal model meets the
        local strategy's :meth:`~repro.reachability.base.ReachabilityIndex.local_cost_factor`.

        Contract
        --------
        * Input is any valid :class:`~repro.api.query.ReachQuery`; only its
          source/target cardinalities and ``direction`` influence the cost
          (never the concrete vertex ids, ``tenant`` or cache options).
        * ``local_index`` overrides the engine's current local strategy with
          a *hypothetical* one by registry name, so a tuner can cost a
          rebuild candidate without building it.  ``None`` costs the
          strategy the engine is running now.
        * Returns a finite non-negative float in the planner's relative
          cost currency.  Callers must only compare these values against
          other ``estimate_query_cost`` results (same or different
          ``local_index``); the absolute scale carries no unit.
        * Deterministic: identical engine statistics and arguments yield
          an identical cost, so argmin routing over replicas is stable.
        * Lock-free: reads only published epoch statistics and the cached
          CSR degree stats, never building snapshots or taking engine
          locks (safe on a serving hot path).

        A ``direction="auto"`` query is costed at the cheapest eligible
        direction, mirroring what :meth:`plan` would pick.
        """
        num_sources = len(set(query.sources))
        num_targets = len(set(query.targets))
        if not num_sources or not num_targets:
            return 0.0
        if local_index is None:
            local_index = getattr(self.engine.index, "local_strategy", "dfs")
        strategy = strategy_class(local_index)
        avg_degree = self._edge_factor() - 1.0

        def directed(direction: str) -> float:
            num_roots = num_targets if direction == "backward" else num_sources
            factor = strategy.local_cost_factor(num_roots, avg_degree)
            return self.estimate_cost(num_sources, num_targets, direction) * factor

        if query.direction == "auto":
            directions = ["forward"]
            if self.engine.enable_backward and self.engine.is_built:
                directions.append("backward")
            return min(directed(direction) for direction in directions)
        return directed(query.direction)

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
        positional ``(sources, targets, direction)`` spread.  A query's
        ``max_batch_pairs`` overrides the planner-wide batching budget for
        that request.
        """
        query = as_reach_query(sources, targets, direction)
        direction = query.direction
        max_batch_pairs = query.max_batch_pairs or self.max_batch_pairs
        source_list = sorted(set(query.sources))
        target_list = sorted(set(query.targets))
        plan_epoch = self.engine.index.epoch
        if not source_list or not target_list:
            return QueryPlan(
                direction="forward",
                batches=(),
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

        batches, split_axis = self._split(source_list, target_list, max_batch_pairs)
        return QueryPlan(
            direction=chosen,
            batches=batches,
            estimated_cost=cost,
            reason=reason,
            split_axis=split_axis,
            epoch=plan_epoch,
        )

    def _split(
        self, sources: List[int], targets: List[int], max_batch_pairs: int
    ) -> Tuple[Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...], str]:
        """Chunk the larger query side so every batch fits the pair budget."""
        if len(sources) * len(targets) <= max_batch_pairs:
            return ((tuple(sources), tuple(targets)),), "none"
        if len(sources) >= len(targets):
            fixed, split, axis = targets, sources, "sources"
        else:
            fixed, split, axis = sources, targets, "targets"
        chunk = max(1, max_batch_pairs // len(fixed))
        batches = []
        for start in range(0, len(split), chunk):
            piece = tuple(split[start : start + chunk])
            if axis == "sources":
                batches.append((piece, tuple(fixed)))
            else:
                batches.append((tuple(fixed), piece))
        return tuple(batches), axis

    # ------------------------------------------------------------------ #
    # result merging
    # ------------------------------------------------------------------ #
    @staticmethod
    def merge(results: Sequence[Set[Tuple[int, int]]]) -> Set[Tuple[int, int]]:
        """Union the per-batch pair sets back into one answer."""
        merged: Set[Tuple[int, int]] = set()
        for pairs in results:
            merged |= pairs
        return merged


__all__ = ["QueryPlan", "QueryPlanner"]
