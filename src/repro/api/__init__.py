"""The unified public API of the DSR reproduction.

Contract: the one stable surface downstream code imports — a validated,
serialisable :class:`DSRConfig`, a string-keyed backend registry
(:func:`open_engine` / :func:`register_backend`), and one
:class:`ReachQuery` → :class:`QueryResult` exchange that every backend
answers identically (cross-backend parity is test-enforced; see
``docs/ARCHITECTURE.md``).

Three pieces compose every workflow:

* :class:`DSRConfig` — a frozen, validated, serialisable description of how
  an engine is built (backend, partitioning, local index, optimisations);
* :func:`open_engine` / :func:`register_backend` — a string-keyed registry of
  interchangeable execution strategies ("backends") that all satisfy the
  :class:`Backend` protocol;
* :class:`ReachQuery` — the one query object every backend answers, returning
  the one :class:`QueryResult`.

>>> from repro.api import DSRConfig, ReachQuery, open_engine
>>> from repro.graph import generators
>>> graph = generators.social_graph(500, avg_degree=6, seed=1)
>>> engine = open_engine(graph, DSRConfig(num_partitions=4, local_index="msbfs"))
>>> result = engine.run(ReachQuery(sources=(0, 1, 2), targets=(100, 200)))
>>> sorted(result.pairs)  # doctest: +SKIP

The same config and query objects drive the CLI (``repro-dsr query --backend``),
the service layer (whose wire ``QueryRequest`` is a thin serialisation of
:class:`ReachQuery`) and the benchmarks.
"""

from repro.api.backends import (
    Backend,
    BackendFactory,
    UnknownBackendError,
    available_backends,
    open_engine,
    register_backend,
    unregister_backend,
)
from repro.api.config import ConfigError, DSRConfig, EPOCH_FLUSH_MODES, PARTITIONERS
from repro.api.query import DIRECTIONS, QueryError, ReachQuery
from repro.core.query import QueryResult

__all__ = [
    "Backend",
    "BackendFactory",
    "ConfigError",
    "DIRECTIONS",
    "DSRConfig",
    "EPOCH_FLUSH_MODES",
    "PARTITIONERS",
    "QueryError",
    "QueryResult",
    "ReachQuery",
    "UnknownBackendError",
    "available_backends",
    "open_engine",
    "register_backend",
    "unregister_backend",
]
