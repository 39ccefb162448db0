"""Multi-source BFS (Then et al. [30], the "DSR-MSBFS" local strategy).

All sources are traversed simultaneously: every vertex carries a bitset of the
sources that have reached it so far, so an edge is relaxed for the whole
source set at once instead of once per source — the memoisation benefit the
paper observes for large query sets (Figure 7).

The actual propagation lives in the CSR kernel
(:mod:`repro.reachability.bitset_msbfs`): this class fetches the graph's
cached :class:`~repro.graph.csr.CSRGraph` snapshot (rebuilt lazily after
mutations — see :meth:`repro.graph.digraph.DiGraph.csr`) and runs the dense
bitset sweep over its flat adjacency arrays — one pass when the snapshot is
a topologically numbered DAG (every condensation is), a BFS to fixpoint
otherwise.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.graph.scc import GraphLike
from repro.reachability import bitset_msbfs
from repro.reachability.base import ReachabilityIndex
from repro.reachability.packed import VertexRank


class MultiSourceBFS(ReachabilityIndex):
    """Shared-frontier multi-source BFS over the graph's CSR snapshot."""

    def __init__(self, graph: GraphLike, batch_size: int = 512) -> None:
        super().__init__(graph)
        self.batch_size = batch_size

    @classmethod
    def local_cost_factor(cls, num_roots: int, avg_degree: float) -> float:
        """Shared frontiers amortise roots in machine words.

        The model: one bitset sweep serves up to 64 roots at once, so the
        per-root traversal cost is ``ceil(roots / 64) / roots`` of a DFS —
        ~1.0 for a single root, ~1/64th for large root sets.  It is hand-set,
        not fitted.  Measured per call (``docs/BENCHMARKS.md``, "Kernel cost
        by seed count"): the one-pass sweep over a 2140-vertex condensation
        is near-flat in the root count (0.2 → 0.9 ms from 1 to 256 roots)
        while the harvest grows with it, and the fixpoint sweep grows
        linearly, i.e. amortises nothing.  Fitting the factor to that curve
        is ROADMAP item 4.
        """
        del avg_degree
        if num_roots <= 0:
            return 1.0
        return -(-num_roots // 64) / num_roots

    def reachable(self, source: int, target: int) -> bool:
        reached = self.set_reachability([source], [target])
        return target in reached.get(source, set())

    def set_reachability(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> Dict[int, Set[int]]:
        return bitset_msbfs.set_reachability(
            self.graph.csr(), list(sources), targets, batch_size=self.batch_size
        )

    def set_reachability_bits(
        self,
        sources: Iterable[int],
        rank: VertexRank,
        target_mask: Optional[int] = None,
    ) -> Dict[int, int]:
        """Packed rows straight off the bitset kernel (no set boxing).

        Native only when the caller's rank numbering *is* the snapshot's
        dense numbering (the epoch pipeline always passes exactly that);
        a foreign numbering falls back to the generic set↔bits bridge.
        """
        csr = self.graph.csr()
        if rank.ids != csr.ids:
            return super().set_reachability_bits(sources, rank, target_mask)
        return bitset_msbfs.set_reachability_rows(
            csr, list(sources), target_mask, batch_size=self.batch_size
        )
