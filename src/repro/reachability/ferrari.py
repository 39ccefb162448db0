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

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Set, Tuple

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
        # Labels are intervals over DFS post-order ids, which keep a
        # tree-shaped reachable set in one interval; ascending dense indices
        # are reverse-topological, so successors are labelled first.
        self._post = post = self._post_order()
        self._intervals: Dict[int, List[Interval]] = {}
        for component in range(dag.num_vertices):
            collected: List[Interval] = [(post[component], post[component], True)]
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

    def _post_order(self) -> List[int]:
        """Each component's DFS post-order id, roots from the highest down."""
        dag, post, seen, counter = self._dag, [0] * self._dag.num_vertices, set(), 0
        stack = list(range(dag.num_vertices))
        while stack:
            vertex = stack.pop()
            if vertex < 0:  # every successor of ~vertex is finished
                post[~vertex], counter = counter, counter + 1
            elif vertex not in seen:
                seen.add(vertex)
                stack.append(~vertex)
                stack.extend(succ for succ in dag.out_neighbors(vertex) if succ not in seen)
        return post

    def _exact_reachable(self, component: int) -> Set[int]:
        """The post-order ids of every component ``component`` reaches."""
        visited = {component}
        stack = [component]
        while stack:
            current = stack.pop()
            for succ in self._dag.out_neighbors(current):
                if succ not in visited:
                    visited.add(succ)
                    stack.append(succ)
        return {self._post[c] for c in visited}

    def rebuild(self) -> None:
        self._build()

    def index_size(self) -> int:
        intervals = sum(len(entries) for entries in self._intervals.values())
        seeds = sum(len(entries) for entries in self._seed_reach.values())
        return intervals + seeds

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def reachable(self, source: int, target: int) -> bool:
        if not self.graph.has_vertex(source) or not self.graph.has_vertex(target):
            return False
        return target in self.set_reachability([source], [target])[source]

    def _classify(self, component: int, pending: List[int]) -> Tuple[List[int], List[int]]:
        """The targets of ascending ``pending`` that ``component``'s disjoint
        intervals decide reached (its own id included), and those left open."""
        hits: List[int] = []
        undecided: List[int] = []
        for lo, hi, exact in self._intervals[component]:
            first, last = bisect_left(pending, lo), bisect_right(pending, hi)
            (hits if exact else undecided).extend(pending[first:last])
        own = self._post[component]
        if own in undecided:
            undecided.remove(own)
            hits.append(own)
        return hits, undecided

    def _search(self, source_comp: int, targets: List[int]) -> Set[int]:
        """The ids of ascending ``targets`` that ``source_comp`` reaches: the
        source's labels first, then one online search for all targets they
        leave open, expanding a component only while its labels leave one
        open (a seed's exact set decides them all)."""
        hits, pending = self._classify(source_comp, targets)
        found = set(hits)
        visited = {source_comp}
        stack = [source_comp]
        while stack and pending:
            current = stack.pop()
            seed = self._seed_reach.get(current)
            if seed is not None:  # its exact set decides every target below it
                found.update(target for target in pending if target in seed)
                pending = [target for target in pending if target not in found]
                continue
            for succ in self._dag.out_neighbors(current):
                if succ in visited:
                    continue
                visited.add(succ)
                hits, undecided = self._classify(succ, pending)
                if hits:
                    found.update(hits)
                    pending = [target for target in pending if target not in found]
                if undecided:
                    stack.append(succ)
        return found

    def set_reachability(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> Dict[int, Set[int]]:
        """Each source's reached targets, from one label-pruned search per source."""
        by_post: Dict[int, List[int]] = {}
        for target in targets:
            if self.graph.has_vertex(target):
                post = self._post[self._vertex_to_component[target]]
                by_post.setdefault(post, []).append(target)
        result: Dict[int, Set[int]] = {}
        for source in sources:
            reached: Set[int] = set()
            if self.graph.has_vertex(source):
                reached = self._search(self._vertex_to_component[source], sorted(by_post))
            result[source] = {target for post in reached for target in by_post[post]}
        return result
