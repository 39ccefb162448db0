"""Fully materialised transitive closure.

The classical O(1)-query / O(|V|^2)-space end of the reachability trade-off
spectrum discussed in Section 5.  It is practical only for small graphs but is
invaluable as the ground truth for the test suite and as the fastest local
strategy for tiny partitions.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.graph.scc import GraphLike, numbered_dag
from repro.reachability.base import ReachabilityIndex


class TransitiveClosureIndex(ReachabilityIndex):
    """Materialises reachable component sets over the condensed DAG."""

    def __init__(self, graph: GraphLike) -> None:
        super().__init__(graph)
        self._build()

    def _build(self) -> None:
        dag, self._vertex_to_component = numbered_dag(self.graph)
        # closure[c] = set of components reachable from c (including c);
        # ascending indices are reverse-topological, so every successor's
        # closure is complete before it is merged.
        self._closure: List[Set[int]] = []
        for component in range(dag.num_vertices):
            reach = {component}
            for succ in dag.out_neighbors(component):
                reach |= self._closure[succ]
            self._closure.append(reach)

    def rebuild(self) -> None:
        self._build()

    def index_size(self) -> int:
        return sum(len(reach) for reach in self._closure)

    def reachable(self, source: int, target: int) -> bool:
        if not self.graph.has_vertex(source) or not self.graph.has_vertex(target):
            return False
        source_comp = self._vertex_to_component[source]
        target_comp = self._vertex_to_component[target]
        return target_comp in self._closure[source_comp]

    def set_reachability(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> Dict[int, Set[int]]:
        target_list = list(targets)
        result: Dict[int, Set[int]] = {}
        for source in sources:
            if not self.graph.has_vertex(source):
                result[source] = set()
                continue
            source_comp = self._vertex_to_component[source]
            closure = self._closure[source_comp]
            result[source] = {
                target
                for target in target_list
                if self.graph.has_vertex(target)
                and self._vertex_to_component[target] in closure
            }
        return result
