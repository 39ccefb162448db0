"""Factory for centralized reachability strategies.

Keeps the string names used across the engine, the benchmarks and the
command-line examples in one place.  Every strategy is handed a mutable
:class:`~repro.graph.digraph.DiGraph` or an immutable
:class:`~repro.graph.csr.CSRGraph` (the engine passes each condensation's
snapshot); the traversal-based ones (``dfs``, ``msbfs`` and its ``bitset``
alias) pull the graph's CSR snapshot on each query, so over a ``DiGraph`` a
strategy instance stays valid across graph updates.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.graph.scc import GraphLike
from repro.reachability.base import ReachabilityIndex
from repro.reachability.dfs import DFSReachability
from repro.reachability.ferrari import FerrariIndex
from repro.reachability.grail import GrailIndex
from repro.reachability.msbfs import MultiSourceBFS
from repro.reachability.transitive_closure import TransitiveClosureIndex

_STRATEGIES: Dict[str, Callable[[GraphLike], ReachabilityIndex]] = {
    "dfs": DFSReachability,
    "msbfs": MultiSourceBFS,
    # Explicit name for the CSR bitset kernel backing "msbfs" since PR 3.
    "bitset": MultiSourceBFS,
    "ferrari": FerrariIndex,
    "grail": GrailIndex,
    "closure": TransitiveClosureIndex,
}


def available_strategies() -> list:
    """Names accepted by :func:`make_reachability_index`."""
    return sorted(_STRATEGIES)


def make_reachability_index(name: str, graph: GraphLike, **kwargs) -> ReachabilityIndex:
    """Instantiate the named local reachability strategy over ``graph``."""
    try:
        factory = _STRATEGIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown reachability strategy {name!r}; "
            f"available: {', '.join(available_strategies())}"
        ) from None
    return factory(graph, **kwargs)
