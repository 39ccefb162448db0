"""GRAIL-style reachability index (Yildirim et al. [36]).

GRAIL assigns each vertex ``d`` independent random interval labels obtained
from randomised post-order DFS traversals of the condensed DAG.  Containment
of *all* labels is a necessary condition for reachability, so label
disjointness gives immediate negative answers; positives are confirmed by a
pruned online search.

The paper lists GRAIL among the centralized indexes that could be plugged into
the DSR framework; we include it as an additional local strategy for the
ablation benchmarks.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Set, Tuple

from repro.graph.scc import GraphLike, numbered_dag
from repro.reachability.base import ReachabilityIndex


class GrailIndex(ReachabilityIndex):
    """Randomised interval labelling with online search confirmation."""

    def __init__(self, graph: GraphLike, num_labels: int = 3, seed: int = 0) -> None:
        super().__init__(graph)
        self.num_labels = max(1, num_labels)
        self.seed = seed
        self._build()

    def _build(self) -> None:
        self._dag, self._vertex_to_component = numbered_dag(self.graph)
        self._labels: List[Dict[int, Tuple[int, int]]] = []
        rng = random.Random(self.seed)
        for _ in range(self.num_labels):
            self._labels.append(self._one_labelling(rng))

    def _one_labelling(self, rng: random.Random) -> Dict[int, Tuple[int, int]]:
        """One randomised post-order labelling label[v] = (min_rank, rank)."""
        rank = 0
        labels: Dict[int, Tuple[int, int]] = {}
        visited: Set[int] = set()
        # Components are the DAG's dense indices.
        dag = self._dag
        roots = [v for v in range(dag.num_vertices) if dag.in_degree(v) == 0]
        others = [v for v in range(dag.num_vertices) if dag.in_degree(v) != 0]
        rng.shuffle(roots)
        rng.shuffle(others)
        for start in roots + others:
            if start in visited:
                continue
            # Iterative randomised DFS with post-order ranks.
            stack: List[Tuple[int, bool]] = [(start, False)]
            while stack:
                vertex, expanded = stack.pop()
                if expanded:
                    rank += 1
                    children_min = [labels[c][0] for c in dag.out_neighbors(vertex) if c in labels]
                    low = min(children_min + [rank])
                    labels[vertex] = (low, rank)
                    continue
                if vertex in visited:
                    continue
                visited.add(vertex)
                stack.append((vertex, True))
                children = list(dag.out_neighbors(vertex))
                rng.shuffle(children)
                for child in children:
                    if child not in visited:
                        stack.append((child, False))
        return labels

    def rebuild(self) -> None:
        self._build()

    def index_size(self) -> int:
        return sum(len(labelling) for labelling in self._labels)

    def _maybe_reachable(self, source_comp: int, target_comp: int) -> bool:
        """Necessary condition: target label contained in source label, all labellings."""
        for labelling in self._labels:
            s_low, s_high = labelling[source_comp]
            t_low, t_high = labelling[target_comp]
            if not (s_low <= t_low and t_high <= s_high):
                return False
        return True

    def reachable(self, source: int, target: int) -> bool:
        if not self.graph.has_vertex(source) or not self.graph.has_vertex(target):
            return False
        source_comp = self._vertex_to_component[source]
        target_comp = self._vertex_to_component[target]
        if source_comp == target_comp:
            return True
        if not self._maybe_reachable(source_comp, target_comp):
            return False
        # Pruned online DFS over the DAG.
        visited = {source_comp}
        stack = [source_comp]
        while stack:
            current = stack.pop()
            for succ in self._dag.out_neighbors(current):
                if succ in visited:
                    continue
                if succ == target_comp:
                    return True
                visited.add(succ)
                if self._maybe_reachable(succ, target_comp):
                    stack.append(succ)
        return False

    def set_reachability(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> Dict[int, Set[int]]:
        target_list = list(targets)
        result: Dict[int, Set[int]] = {}
        for source in sources:
            result[source] = {
                target
                for target in target_list
                if self.graph.has_vertex(source)
                and self.graph.has_vertex(target)
                and self.reachable(source, target)
            }
        return result
