"""Multi-source BFS (Then et al. [30], the "DSR-MSBFS" local strategy).

All sources are traversed simultaneously: every vertex carries a bitset of the
sources that have reached it so far, so an edge is relaxed for the whole
source set at once instead of once per source — the memoisation benefit the
paper observes for large query sets (Figure 7).

The actual propagation lives in the CSR kernel
(:mod:`repro.reachability.bitset_msbfs`), which sweeps topologically
numbered DAGs only, in one pass.  This class therefore sweeps the graph's
:func:`~repro.graph.scc.numbered_dag` — the snapshot itself when it is
already numbered (every condensation the engine hands it), its condensation
otherwise — and translates between vertices and components, the way the
closure, FERRARI and GRAIL strategies do (packed rows over any numbering
but the DAG's own go through the generic set↔bits bridge).  The numbering
is derived once per CSR snapshot, so over a mutable ``DiGraph`` an instance
follows the graph's updates (its snapshot is rebuilt lazily after a
mutation, see :meth:`repro.graph.digraph.DiGraph.csr`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.graph.csr import CSRGraph
from repro.graph.scc import GraphLike, numbered_dag
from repro.reachability import bitset_msbfs
from repro.reachability.base import ReachabilityIndex
from repro.reachability.packed import VertexRank, pack_ranks


class MultiSourceBFS(ReachabilityIndex):
    """Shared-frontier multi-source BFS over the graph's numbered DAG."""

    def __init__(self, graph: GraphLike, batch_size: int = 512) -> None:
        super().__init__(graph)
        self.batch_size = batch_size
        # (snapshot, numbered DAG, vertex -> DAG dense index), derived from
        # the graph's current snapshot on first use.
        self._numbering: Optional[Tuple[CSRGraph, CSRGraph, Dict[int, int]]] = None

    def _numbered(self) -> Tuple[CSRGraph, CSRGraph, Dict[int, int]]:
        """The graph's numbered DAG, re-derived when its snapshot changed."""
        csr = self.graph.csr()
        numbering = self._numbering
        if numbering is None or numbering[0] is not csr:
            dag, vertex_to_component = numbered_dag(csr)
            numbering = self._numbering = (csr, dag, vertex_to_component)
        return numbering

    def reachable(self, source: int, target: int) -> bool:
        reached = self.set_reachability([source], [target])
        return target in reached.get(source, set())

    def set_reachability(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> Dict[int, Set[int]]:
        _, dag, component_of = self._numbered()
        sources = list(sources)
        result: Dict[int, Set[int]] = {source: set() for source in sources}
        target_list = [target for target in set(targets) if target in component_of]
        components = {component_of[s] for s in sources if s in component_of}
        if not components or not target_list:
            return result
        target_mask = pack_ranks(sorted({component_of[t] for t in target_list}))
        ids, index_of = dag.ids, dag.index_of
        rows = {
            index_of(source): row
            for source, row in bitset_msbfs.set_reachability_rows(
                dag, [ids[c] for c in components], target_mask, batch_size=self.batch_size
            ).items()
        }
        for source in sources:
            row = rows.get(component_of.get(source), 0)
            if row:
                result[source] = {t for t in target_list if row >> component_of[t] & 1}
        return result

    def set_reachability_bits(
        self,
        sources: Iterable[int],
        rank: VertexRank,
        target_mask: Optional[int] = None,
    ) -> Dict[int, int]:
        """Packed rows straight off the bitset kernel (no set boxing).

        Native when the caller's rank numbering *is* the numbered DAG's (the
        epoch pipeline always passes a condensation's own numbering); any
        other numbering falls back to the generic set↔bits bridge.
        """
        dag = self._numbered()[1]
        if rank.ids != dag.ids:
            return super().set_reachability_bits(sources, rank, target_mask)
        return bitset_msbfs.set_reachability_rows(
            dag, list(sources), target_mask, batch_size=self.batch_size
        )
