"""The public DSR engine.

:class:`DSREngine` is the top-level API a downstream user works with: give it
a directed graph and a :class:`~repro.api.config.DSRConfig` describing how to
partition it and whether to enable the equivalence-set optimisation, then
build the index once and run as many set-reachability queries and
incremental updates as needed.  Every partition answers its local
set-reachability with one kernel, the bitset one-pass sweep over its
condensed compound graph.

Example
-------
>>> from repro.api import DSRConfig, ReachQuery, open_engine
>>> from repro.graph import generators
>>> graph = generators.social_graph(500, avg_degree=6, seed=1)
>>> engine = open_engine(graph, DSRConfig(num_partitions=4, local_index="msbfs"))
>>> result = engine.run(ReachQuery(sources=(0, 1, 2), targets=(100, 200)))
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Optional

from repro.api.config import DSRConfig
from repro.api.query import ReachQuery
from repro.cluster.cluster import SimulatedCluster
from repro.core.index import DSRIndex, IndexBuildReport
from repro.core.query import DistributedQueryExecutor, QueryResult
from repro.core.updates import IncrementalMaintainer, UpdateResult
from repro.graph.digraph import DiGraph
from repro.obs.trace import QueryTrace
from repro.partition.partition import GraphPartitioning, make_partitioning


class DSREngine:
    """End-to-end distributed set-reachability engine."""

    def __init__(
        self,
        graph: DiGraph,
        config: Optional[DSRConfig] = None,
        *,
        partitioning: Optional[GraphPartitioning] = None,
    ) -> None:
        """Set up an engine from a :class:`~repro.api.config.DSRConfig`.

        ``partitioning`` optionally supplies a pre-computed partitioning to
        share with other engines; the stored :attr:`config` is then
        reconciled to its partition count so it keeps describing the engine
        faithfully (the ``partitioner``/``seed`` fields describe how a
        partitioning *would* be derived and do not apply to a supplied one).
        The index is *not* built yet — call :meth:`build_index`, or use
        :func:`repro.api.open_engine` which returns a ready-to-query engine.
        """
        config = config if config is not None else DSRConfig()
        if partitioning is not None and (
            config.num_partitions != partitioning.num_partitions
        ):
            config = config.replace(num_partitions=partitioning.num_partitions)
        if config.backend != "dsr":
            raise ValueError(
                f"DSREngine expects backend='dsr', got "
                f"{config.backend!r}; use repro.api.open_engine for other backends"
            )
        self.graph = graph
        #: Registry name under which this engine satisfies the Backend protocol.
        self.name = "dsr"
        #: The config this engine was opened from.
        self.config: DSRConfig = config
        if partitioning is not None:
            self.partitioning = partitioning
        else:
            self.partitioning = make_partitioning(
                graph, config.num_partitions, strategy=config.partitioner, seed=config.seed
            )
        executor = config.executor
        if config.worker_hosts is not None:
            if executor != "tcp":
                raise ValueError(
                    f"worker_hosts requires executor='tcp', got {executor!r}"
                )
            from repro.cluster.remote import TcpExecutor

            executor = TcpExecutor(worker_hosts=config.worker_hosts)
        #: How batched updates fold into the index ("inline" | "background").
        self.epoch_flush = config.epoch_flush
        self.cluster = SimulatedCluster(
            self.partitioning.num_partitions, executor=executor
        )
        self._use_equivalence = config.use_equivalence
        self.index = DSRIndex(
            self.partitioning, use_equivalence=self._use_equivalence, cluster=self.cluster
        )
        # Optional backward-processing support ("Forward vs. Backward
        # Processing", Section 3.3.2): a mirror index over the reversed graph
        # that lets a query start from the target side when |T| < |S|.
        self.enable_backward = config.enable_backward
        self._reverse_index: Optional[DSRIndex] = None
        self._reverse_executor: Optional[DistributedQueryExecutor] = None
        self._reverse_maintainer: Optional[IncrementalMaintainer] = None

        self._executor: Optional[DistributedQueryExecutor] = None
        self._maintainer: Optional[IncrementalMaintainer] = None
        self.last_build_report: Optional[IndexBuildReport] = None
        self.last_query_result: Optional[QueryResult] = None

    @classmethod
    def from_config(
        cls,
        graph: DiGraph,
        config: Optional[DSRConfig] = None,
        *,
        partitioning: Optional[GraphPartitioning] = None,
    ) -> "DSREngine":
        """Named spelling of the constructor: ``DSREngine(graph, config)``."""
        return cls(graph, config, partitioning=partitioning)

    # ------------------------------------------------------------------ #
    # index lifecycle
    # ------------------------------------------------------------------ #
    def build_index(self) -> IndexBuildReport:
        """Build the distributed index (summaries + compound graphs)."""
        self.last_build_report = self.index.build()
        self._executor = DistributedQueryExecutor(self.index, self.cluster)
        self._maintainer = IncrementalMaintainer(self.index)
        if self.enable_backward:
            self._build_reverse_index()
        return self.last_build_report

    def _build_reverse_index(self) -> None:
        """Build the mirror index over the reversed data graph."""
        reversed_graph = self.graph.reverse()
        reverse_partitioning = GraphPartitioning(
            reversed_graph, dict(self.partitioning.assignment),
            self.partitioning.num_partitions,
        )
        # The mirror index runs on the *same* simulated cluster as the forward
        # index: the paper's deployment keeps both directions on one set of
        # slaves, and sharing the cluster means backward queries report their
        # communication statistics through the same counters as forward ones.
        # Worker shards stay exclusive to the forward index (shards are keyed
        # by (rank, epoch) on the workers), so backward queries evaluate on
        # the in-process path.
        self._reverse_index = DSRIndex(
            reverse_partitioning,
            use_equivalence=self._use_equivalence,
            cluster=self.cluster,
            shard_hydration=False,
        )
        self._reverse_index.build()
        self._reverse_executor = DistributedQueryExecutor(self._reverse_index, self.cluster)
        self._reverse_maintainer = IncrementalMaintainer(self._reverse_index)

    @property
    def is_built(self) -> bool:
        return self.index.is_built

    def _require_built(self) -> None:
        if not self.is_built:
            raise RuntimeError("call build_index() before querying or updating")

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def choose_direction(
        self, sources: Iterable[int], targets: Iterable[int], direction: str
    ) -> str:
        """Resolve ``direction`` for the query ``sources ⇝ targets``.

        The one direction rule (Section 3.3.2, "Forward vs. Backward
        Processing"): ``"auto"`` starts from the smaller side — it becomes
        ``"backward"`` iff the backward index is built and the query has
        fewer distinct targets than distinct sources, and ``"forward"``
        otherwise.  An explicit ``"forward"`` or ``"backward"`` passes
        through unchanged (:meth:`run` refuses backward without the index).
        Both :meth:`run` and the service planner ask this method, so a query
        goes the same way on every surface.
        """
        if direction != "auto":
            return direction
        if self._reverse_executor is not None and len(set(targets)) < len(set(sources)):
            return "backward"
        return "forward"

    def run(self, query: ReachQuery) -> QueryResult:
        """Answer one :class:`~repro.api.query.ReachQuery`.

        This is the canonical query entry point shared by every backend.
        ``query.direction`` selects the processing direction (Section 3.3.2,
        "Forward vs. Backward Processing"):

        * ``"forward"`` — start from the sources (the default behaviour);
        * ``"backward"`` — start from the targets over the reversed index
          (requires ``enable_backward=True``);
        * ``"auto"`` — resolved by :meth:`choose_direction`: backward when
          the backward index is available and the query has fewer distinct
          targets than distinct sources, forward otherwise.
        """
        self._require_built()
        if not isinstance(query, ReachQuery):
            raise TypeError(f"run() takes a ReachQuery, got {type(query).__name__}")
        # Trivially empty queries short-circuit before the distributed
        # pipeline (and before folding updates — the empty answer is correct
        # regardless of pending changes).
        trace = QueryTrace() if query.trace else None
        if query.is_empty:
            result = QueryResult(pairs=set(), trace=trace)
            if trace is not None:
                trace.attrs["empty"] = True
            self.last_query_result = result
            return result
        # Inline epoch mode: batched incremental updates are folded into the
        # index before answering, so query results always reflect every
        # applied update (and the query waits on that maintenance).
        # Background epoch mode: never flush on the query path — the query
        # reads the currently published epoch (consistent, possibly one flush
        # behind) while the maintenance thread builds the next one.
        if self.epoch_flush == "inline":
            flush_needed = (
                self._maintainer is not None
                and self._maintainer.has_pending_changes
            ) or (
                self._reverse_maintainer is not None
                and self._reverse_maintainer.has_pending_changes
            )
            flush_start = time.perf_counter() if (trace is not None and flush_needed) else None
            if self._maintainer is not None and self._maintainer.has_pending_changes:
                self._maintainer.flush()
            if (
                self._reverse_maintainer is not None
                and self._reverse_maintainer.has_pending_changes
            ):
                self._reverse_maintainer.flush()
            if flush_start is not None:
                trace.add("flush_inline", time.perf_counter() - flush_start)

        direction = self.choose_direction(query.sources, query.targets, query.direction)
        if trace is not None:
            trace.attrs["direction"] = direction
        if direction == "backward":
            if self._reverse_executor is None:
                raise RuntimeError(
                    "backward processing requires enable_backward=True at construction"
                )
            result = self._reverse_executor.query(
                query.targets, query.sources, trace=trace
            ).swapped()
        else:
            result = self._executor.query(query.sources, query.targets, trace=trace)
        self.last_query_result = result
        return result

    def reachable(self, source: int, target: int) -> bool:
        """Single-pair reachability (Algorithm 1)."""
        self._require_built()
        return (source, target) in self.run(ReachQuery.single(source, target)).pairs

    @property
    def last_query_stats(self) -> Dict[str, object]:
        if self.last_query_result is None:
            return {}
        return self.last_query_result.as_dict()

    # ------------------------------------------------------------------ #
    # incremental updates
    # ------------------------------------------------------------------ #
    def _schedule_maintenance(self) -> None:
        """In background mode, kick the coalescing epoch-flush worker(s)."""
        if self.epoch_flush != "background":
            return
        if self._maintainer is not None and self._maintainer.has_pending_changes:
            self._maintainer.request_background_flush()
        if (
            self._reverse_maintainer is not None
            and self._reverse_maintainer.has_pending_changes
        ):
            self._reverse_maintainer.request_background_flush()

    def insert_edge(self, u: int, v: int) -> UpdateResult:
        self._require_built()
        result = self._maintainer.insert_edge(u, v)
        if self._reverse_maintainer is not None:
            self._reverse_maintainer.insert_edge(v, u)
        self._schedule_maintenance()
        return result

    def delete_edge(self, u: int, v: int) -> UpdateResult:
        self._require_built()
        result = self._maintainer.delete_edge(u, v)
        if self._reverse_maintainer is not None:
            self._reverse_maintainer.delete_edge(v, u)
        self._schedule_maintenance()
        return result

    def insert_vertex(
        self, vertex: Optional[int] = None, partition_id: Optional[int] = None
    ) -> int:
        self._require_built()
        new_vertex = self._maintainer.insert_vertex(vertex, partition_id)
        if self._reverse_maintainer is not None:
            self._reverse_maintainer.insert_vertex(
                new_vertex, self.partitioning.partition_of(new_vertex)
            )
        self._schedule_maintenance()
        return new_vertex

    def delete_vertex(self, vertex: int) -> UpdateResult:
        self._require_built()
        if self._reverse_maintainer is not None:
            self._reverse_maintainer.delete_vertex(vertex)
        result = self._maintainer.delete_vertex(vertex)
        self._schedule_maintenance()
        return result

    def flush_updates(self):
        """Fold any batched incremental updates into the index now.

        In ``epoch_flush="inline"`` mode updates are otherwise folded in
        automatically before the next query; in ``"background"`` mode the
        maintenance thread does it off the hot path.  Calling this explicitly
        is useful when measuring maintenance cost (Figure 6) or before
        serialising index statistics.  Synchronous: the new epoch is
        published when it returns.
        """
        self._require_built()
        result = self._maintainer.flush()
        if self._reverse_maintainer is not None:
            # Unconditional (not gated on has_pending_changes): an in-flight
            # background reverse flush drains the pending batch before it
            # publishes, and flush() on a clean maintainer still serialises
            # on its flush lock — so when this returns, no reverse epoch
            # publication can be pending either.
            self._reverse_maintainer.flush()
        return result

    def wait_for_maintenance(self, timeout: Optional[float] = None) -> bool:
        """Block until no background epoch flush is pending (False on timeout)."""
        done = True
        if self._maintainer is not None:
            done = self._maintainer.wait_for_flushes(timeout) and done
        if self._reverse_maintainer is not None:
            done = self._reverse_maintainer.wait_for_flushes(timeout) and done
        return done

    @property
    def has_pending_updates(self) -> bool:
        return self._maintainer is not None and self._maintainer.has_pending_changes

    @property
    def epoch(self) -> int:
        """The currently published index epoch (-1 before build)."""
        return self.index.epoch

    @property
    def maintainer(self) -> Optional[IncrementalMaintainer]:
        """The forward index's incremental maintainer (``None`` before build).

        Exposed so observers — e.g. the service layer's result cache — can
        subscribe to the update/flush stream via
        :meth:`IncrementalMaintainer.add_update_listener`.
        """
        return self._maintainer

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release executor resources (worker processes, thread pools).

        Safe to call more than once; the engine must not be queried after.
        The reverse index shares the forward cluster, so one close suffices.
        """
        if self._maintainer is not None:
            self._maintainer.wait_for_flushes(timeout=5.0)
        if self._reverse_maintainer is not None:
            self._reverse_maintainer.wait_for_flushes(timeout=5.0)
        self.cluster.close()

    def __enter__(self) -> "DSREngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def index_sizes(self) -> Dict[str, object]:
        """Table-2-style index size summary."""
        self._require_built()
        return self.index.index_sizes()

    def partition_summary(self) -> Dict[str, object]:
        """Partitioning statistics (cut size, balance, boundary counts)."""
        summary = self.partitioning.summary()
        if self.is_built:
            forward, backward = self.index.total_boundary_entries()
            summary["forward_entries"] = forward
            summary["backward_entries"] = backward
        return summary
