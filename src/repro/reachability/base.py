"""Abstract interface shared by all centralized reachability strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Optional, Set

from repro.graph.scc import GraphLike
from repro.reachability.packed import VertexRank


class ReachabilityIndex(ABC):
    """A (possibly indexed) reachability oracle over a single directed graph.

    Implementations answer single-pair queries (:meth:`reachable`) and
    set-reachability queries (:meth:`set_reachability`), which is exactly the
    ``localSetReachability(.)`` abstraction of Algorithms 1 and 2.

    ``graph`` is a mutable ``DiGraph`` or an immutable CSR snapshot (the
    engine hands every strategy its condensation's snapshot).  The index is
    built eagerly in ``__init__`` (or lazily on first use for index-free
    strategies); :meth:`rebuild` must be called after a ``DiGraph``
    underneath has been mutated.
    """

    def __init__(self, graph: GraphLike) -> None:
        self.graph = graph

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @abstractmethod
    def reachable(self, source: int, target: int) -> bool:
        """Return ``True`` iff ``source ⇝ target``."""

    def set_reachability(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> Dict[int, Set[int]]:
        """Return ``{source: {targets reachable from source}}``.

        The default implementation loops over :meth:`reachable`; concrete
        strategies override it with something smarter (shared traversals,
        interval pruning, ...).  Sources and targets may overlap; a vertex is
        always considered reachable from itself.
        """
        target_set = set(targets)
        result: Dict[int, Set[int]] = {}
        for source in sources:
            reached = {
                target for target in target_set if self.reachable(source, target)
            }
            result[source] = reached
        return result

    def set_reachability_bits(
        self,
        sources: Iterable[int],
        rank: VertexRank,
        target_mask: Optional[int] = None,
    ) -> Dict[int, int]:
        """Return ``{source: packed row}`` over the given vertex-rank numbering.

        Bit ``r`` of a returned row is set iff the vertex ``rank.ids[r]`` is
        reachable from the source.  ``target_mask`` optionally restricts the
        rows to the masked target vertices (an ``AND`` against the mask);
        ``None`` means "all vertices of the rank".

        This default implementation bridges through :meth:`set_reachability`
        (unpack the mask, query sets, re-pack), so every index-style strategy
        (ferrari, grail, closure) participates in the packed pipeline without
        changes; the traversal strategies override it with native kernels
        that never materialise the intermediate sets.
        """
        if target_mask is None:
            targets: Iterable[int] = rank.ids
        else:
            targets = rank.unpack(target_mask)
        sets = self.set_reachability(sources, targets)
        return {source: rank.pack(reached) for source, reached in sets.items()}

    def reachable_pairs(
        self, sources: Iterable[int], targets: Iterable[int]
    ) -> Set[tuple]:
        """Convenience wrapper returning the flat ``{(s, t)}`` pair set."""
        pairs = set()
        for source, reached in self.set_reachability(sources, targets).items():
            for target in reached:
                pairs.add((source, target))
        return pairs

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def rebuild(self) -> None:
        """Rebuild any internal structures after the graph changed.

        Index-free strategies do not need to do anything.
        """

    def index_size(self) -> int:
        """A rough count of index entries (0 for index-free strategies)."""
        return 0

    @property
    def name(self) -> str:
        return type(self).__name__
