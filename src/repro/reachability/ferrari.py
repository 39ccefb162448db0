"""FERRARI-style interval reachability index (Seufert et al. [28]).

FERRARI assigns every vertex a bounded set of post-order identifier intervals
over the SCC-condensed DAG.  A vertex ``u`` reaches ``v`` iff ``v``'s
identifier is contained in one of ``u``'s *exact* intervals; if it only falls
into an *approximate* (merged) interval the index cannot decide and falls back
to a pruned online search.  A small set of high-degree "seed" vertices keeps
exact reachable-bitsets to prune the fallback searches further.

This implementation keeps the same query behaviour and tunables (maximum
number of intervals per vertex, number of seeds) as the original system; the
compression of merged intervals is what provides the tunable space/time
trade-off the paper exploits for "DSR-FERRARI".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.scc import GraphLike, numbered_dag
from repro.reachability.base import ReachabilityIndex

# An interval is a closed range [lo, hi] over post-order ids, plus a flag that
# tells whether it is exact (every id inside is reachable) or approximate.
Interval = Tuple[int, int, bool]


def _merge_intervals(intervals: List[Interval], budget: int) -> List[Interval]:
    """Sort, coalesce and — if needed — approximate intervals down to ``budget``."""
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged: List[Interval] = []
    for lo, hi, exact in intervals:
        if merged and lo <= merged[-1][1] + 1:
            plo, phi, pexact = merged[-1]
            # Adjacent or overlapping: coalesce; exactness survives only if both
            # pieces are exact and they truly touch.
            merged[-1] = (plo, max(phi, hi), pexact and exact and lo <= phi + 1)
        else:
            merged.append((lo, hi, exact))
    while len(merged) > budget:
        # Merge the pair of neighbouring intervals with the smallest gap,
        # marking the result approximate.
        best_gap = None
        best_index = None
        for index in range(len(merged) - 1):
            gap = merged[index + 1][0] - merged[index][1]
            if best_gap is None or gap < best_gap:
                best_gap = gap
                best_index = index
        lo1, hi1, _ = merged[best_index]
        lo2, hi2, _ = merged[best_index + 1]
        merged[best_index : best_index + 2] = [(lo1, max(hi1, hi2), False)]
    return merged


class FerrariIndex(ReachabilityIndex):
    """Interval-labelling reachability index with bounded label size."""

    def __init__(
        self,
        graph: GraphLike,
        max_intervals: int = 4,
        num_seeds: int = 32,
    ) -> None:
        super().__init__(graph)
        self.max_intervals = max(1, max_intervals)
        self.num_seeds = max(0, num_seeds)
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        self._dag, self._vertex_to_component = numbered_dag(self.graph)
        dag = self._dag
        # Components are the DAG's dense indices, which ascend in reverse
        # topological order: every successor is labelled before its
        # predecessors, and a component's index doubles as its post-order id.
        self._intervals: Dict[int, List[Interval]] = {}
        for component in range(dag.num_vertices):
            collected: List[Interval] = [(component, component, True)]
            for succ in dag.out_neighbors(component):
                collected.extend(self._intervals[succ])
            self._intervals[component] = _merge_intervals(collected, self.max_intervals)

        # Seeds: highest total-degree components keep exact reachable sets.
        self._seed_reach: Dict[int, Set[int]] = {}
        if self.num_seeds and dag.num_vertices:
            by_degree = sorted(
                range(dag.num_vertices),
                key=lambda c: dag.out_degree(c) + dag.in_degree(c),
                reverse=True,
            )
            for component in by_degree[: self.num_seeds]:
                self._seed_reach[component] = self._exact_reachable(component)

    def _exact_reachable(self, component: int) -> Set[int]:
        visited = {component}
        stack = [component]
        while stack:
            current = stack.pop()
            for succ in self._dag.out_neighbors(current):
                if succ not in visited:
                    visited.add(succ)
                    stack.append(succ)
        return visited

    def rebuild(self) -> None:
        self._build()

    def index_size(self) -> int:
        intervals = sum(len(entries) for entries in self._intervals.values())
        seeds = sum(len(entries) for entries in self._seed_reach.values())
        return intervals + seeds

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def _label_check(self, source_comp: int, target_comp: int) -> Optional[bool]:
        """Tri-state interval test: True / False / None (= undecided)."""
        undecided = False
        for lo, hi, exact in self._intervals[source_comp]:
            if lo <= target_comp <= hi:
                if exact:
                    return True
                undecided = True
        if undecided:
            return None
        return False

    def reachable(self, source: int, target: int) -> bool:
        if not self.graph.has_vertex(source) or not self.graph.has_vertex(target):
            return False
        source_comp = self._vertex_to_component[source]
        target_comp = self._vertex_to_component[target]
        if source_comp == target_comp:
            return True
        verdict = self._label_check(source_comp, target_comp)
        if verdict is not None:
            return verdict
        return self._guided_search(source_comp, target_comp)

    def _guided_search(self, source_comp: int, target_comp: int) -> bool:
        """Online DAG search pruned by interval labels and seed sets."""
        visited = {source_comp}
        stack = [source_comp]
        while stack:
            current = stack.pop()
            if current in self._seed_reach:
                if target_comp in self._seed_reach[current]:
                    return True
                # The seed's full reachable set is known and excludes the
                # target, so nothing below this branch can succeed.
                continue
            for succ in self._dag.out_neighbors(current):
                if succ in visited:
                    continue
                if succ == target_comp:
                    return True
                verdict = self._label_check(succ, target_comp)
                if verdict is True:
                    return True
                if verdict is False:
                    # The whole subtree below succ cannot contain the target.
                    visited.add(succ)
                    continue
                visited.add(succ)
                stack.append(succ)
        return False

    def set_reachability(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> Dict[int, Set[int]]:
        target_list = list(targets)
        result: Dict[int, Set[int]] = {}
        for source in sources:
            if not self.graph.has_vertex(source):
                result[source] = set()
                continue
            reached = {
                target
                for target in target_list
                if self.graph.has_vertex(target) and self.reachable(source, target)
            }
            result[source] = reached
        return result
