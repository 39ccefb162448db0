"""Built-in backend adapters.

Importing this module registers the paper's execution strategies in the
backend registry (:mod:`repro.api.backends`):

=============== ======================================================
name            strategy
=============== ======================================================
``dsr``         partitioned DSR index, one-round protocol (Section 3.3)
``naive``       one Fan et al. query per ``(s, t)`` pair (Section 3.1)
``fan``         Fan et al. generalised to sets (Section 3.2)
``giraph``      vertex-centric BSP traversal (Appendix 8.4.1)
``giraphpp``    graph-centric Giraph++ traversal (Appendix 8.4.2)
``giraphpp-eq`` Giraph++ with class-addressed messages (Appendix 8.4.3)
=============== ======================================================

The non-DSR engines keep their historical ``query(sources, targets)``
methods; :class:`QueryAdapter` wraps them so they satisfy the
:class:`~repro.api.backends.Backend` protocol — same :class:`ReachQuery` in,
same :class:`~repro.core.query.QueryResult` out.
"""

from __future__ import annotations

from typing import Optional

from repro.api.backends import _REGISTRY, register_backend
from repro.api.config import DSRConfig
from repro.api.query import ReachQuery
from repro.core.query import QueryResult
from repro.graph.digraph import DiGraph
from repro.partition.partition import GraphPartitioning, make_partitioning


def partitioning_from_config(
    graph: DiGraph,
    config: DSRConfig,
    partitioning: Optional[GraphPartitioning] = None,
) -> GraphPartitioning:
    """The shared partitioning, or one derived from the config."""
    if partitioning is not None:
        return partitioning
    return make_partitioning(
        graph, config.num_partitions, strategy=config.partitioner, seed=config.seed
    )


class QueryAdapter:
    """Adapts a ``query(sources, targets)``-style engine to the Backend protocol."""

    #: Directions the wrapped engine can execute. The traversal baselines all
    #: start at the sources, so only forward processing is available.
    supported_directions = ("auto", "forward")

    def __init__(self, name: str, inner) -> None:
        self.name = name
        self.inner = inner

    def run(self, query: ReachQuery) -> QueryResult:
        if query.direction not in self.supported_directions:
            raise ValueError(
                f"backend {self.name!r} does not support "
                f"{query.direction!r} processing"
            )
        if query.is_empty:
            return QueryResult(pairs=set())
        return self.inner.query(query.sources, query.targets)

    def reachable(self, source: int, target: int) -> bool:
        return (source, target) in self.run(ReachQuery.single(source, target)).pairs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} inner={type(self.inner).__name__}>"


# ---------------------------------------------------------------------- #
# factories
# ---------------------------------------------------------------------- #
def _open_dsr(graph, config, partitioning):
    from repro.core.engine import DSREngine

    engine = DSREngine.from_config(graph, config, partitioning=partitioning)
    engine.build_index()
    return engine


def _open_naive(graph, config, partitioning):
    from repro.core.naive import DSRNaive

    return QueryAdapter(
        "naive",
        DSRNaive(
            partitioning_from_config(graph, config, partitioning),
            local_strategy=config.local_index,
        ),
    )


def _open_fan(graph, config, partitioning):
    from repro.core.fan import DSRFan

    return QueryAdapter(
        "fan",
        DSRFan(
            partitioning_from_config(graph, config, partitioning),
            local_strategy=config.local_index,
        ),
    )


def _open_giraph(graph, config, partitioning):
    from repro.giraph.giraph_dsr import GiraphDSR

    return QueryAdapter(
        "giraph",
        GiraphDSR(graph, partitioning_from_config(graph, config, partitioning)),
    )


def _open_giraphpp(graph, config, partitioning):
    from repro.giraph.giraphpp_dsr import GiraphPlusPlusDSR

    return QueryAdapter(
        "giraphpp",
        GiraphPlusPlusDSR(
            graph, partitioning_from_config(graph, config, partitioning)
        ),
    )


def _open_giraphpp_eq(graph, config, partitioning):
    from repro.giraph.giraphpp_eq_dsr import GiraphPlusPlusEqDSR

    return QueryAdapter(
        "giraphpp-eq",
        GiraphPlusPlusEqDSR(
            graph, partitioning_from_config(graph, config, partitioning)
        ),
    )


_BUILTINS = {
    "dsr": _open_dsr,
    "naive": _open_naive,
    "fan": _open_fan,
    "giraph": _open_giraph,
    "giraphpp": _open_giraphpp,
    "giraphpp-eq": _open_giraphpp_eq,
}

for _name, _factory in _BUILTINS.items():
    if _name not in _REGISTRY:  # idempotent under re-import
        register_backend(_name, _factory)


__all__ = ["QueryAdapter", "partitioning_from_config"]
