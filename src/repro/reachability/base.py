"""Abstract interface shared by all centralized reachability strategies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Set

from repro.graph.scc import GraphLike


class ReachabilityIndex(ABC):
    """A (possibly indexed) reachability oracle over a single directed graph.

    Implementations answer single-pair queries (:meth:`reachable`) and
    set-reachability queries (:meth:`set_reachability`), which is exactly the
    ``localSetReachability(.)`` abstraction of Algorithms 1 and 2.

    ``graph`` is a mutable ``DiGraph`` or an immutable CSR snapshot (the
    Fig. 7 harness hands every strategy an engine's published
    condensations).  The index is
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
