"""The distributed DSR index (Section 3.3.1), epoch-versioned.

:class:`DSRIndex` orchestrates the index build over a simulated cluster:

1. every slave computes the summary of its own partition in parallel
   (SCCs, equivalence classes, transitive boundary reachability);
2. the summaries are broadcast — this is the only index-build communication,
   and its volume is what shrinks when the equivalence optimisation is on;
3. every slave assembles its compound graph ``G^C_i`` from its local subgraph,
   the remote summaries and the static cut and condenses it; the condensation
   is what the query kernel sweeps.

Epoch versioning
----------------
The built structures — local graphs, summaries, compound graphs — are grouped
into one immutable-by-contract :class:`EpochState` and published through a
single attribute swap.  Queries capture :meth:`DSRIndex.current_state` once at
entry and evaluate everything against that state, so a maintenance flush that
is busy building epoch ``N+1`` (see :mod:`repro.core.updates`) never exposes a
half-merged view: readers see epoch ``N`` until the one-pointer swap, then
``N+1``.  When the cluster runs on a sharded executor (``processes`` or
``tcp``), the remote workers are hydrated with the new epoch's CSR shards
*before* the swap, keyed by epoch, and keep the previous epoch alive for
in-flight queries.

The index also exposes the size statistics reported in Tables 2 and 4.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.cluster.cluster import ClusterStats, SimulatedCluster
from repro.obs.runtime import global_registry
from repro.core.boundary_graph import BoundaryGraphStats, boundary_graph_stats
from repro.core.compound_graph import (
    CompoundGraph,
    assemble_compound_graph,
    build_compound_graph,
    condensation_holds,
)
from repro.core.summary import SUMMARY_STRATEGY, PartitionSummary, build_partition_summary
from repro.graph.digraph import DiGraph
from repro.graph.traversal import is_reachable
from repro.partition.partition import GraphPartitioning
from repro.reachability import kernels


@dataclass
class IndexBuildReport:
    """Timing and size statistics of one index build."""

    build_seconds: float
    parallel_build_seconds: float
    summary_bytes: int
    per_partition_original_edges: Dict[int, int] = field(default_factory=dict)
    per_partition_dag_edges: Dict[int, int] = field(default_factory=dict)
    per_partition_bytes: Dict[int, int] = field(default_factory=dict)

    @property
    def max_original_edges(self) -> int:
        return max(self.per_partition_original_edges.values(), default=0)

    @property
    def max_dag_edges(self) -> int:
        return max(self.per_partition_dag_edges.values(), default=0)

    @property
    def total_bytes(self) -> int:
        return sum(self.per_partition_bytes.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "build_seconds": self.build_seconds,
            "parallel_build_seconds": self.parallel_build_seconds,
            "summary_bytes": self.summary_bytes,
            "max_original_edges": self.max_original_edges,
            "max_dag_edges": self.max_dag_edges,
            "total_bytes": self.total_bytes,
        }


@dataclass
class EpochState:
    """One consistent, published version of every per-partition structure.

    A state is immutable by contract once published: maintenance builds a
    *new* state and swaps it in.  Its compound graphs and condensations are
    immutable CSR snapshots that no update edits; the one exception is an
    isolated-vertex insert, which registers the vertex in ``assignment`` and
    ``local_graphs`` and swaps a rebuilt snapshot into its partition's
    compound graph (:meth:`~repro.core.compound_graph.CompoundGraph.
    add_isolated_vertex`) — provably answer-preserving.  ``local_graphs``
    also mirror non-structural edge inserts (``u ⇝ v`` already held
    locally) and edge deletions: the next flush reads them, no query does.
    """

    epoch: int
    local_graphs: Dict[int, DiGraph]
    summaries: Dict[int, PartitionSummary]
    compound_graphs: Dict[int, CompoundGraph]
    #: Per-partition boundary vertices (``I_i ∪ O_i``) as of this epoch, so
    #: query-time boundary/interior classification reads the same version as
    #: the compound graphs instead of the live (possibly newer) cut.
    boundary_sets: Dict[int, Set[int]] = field(default_factory=dict)
    #: Vertex → partition assignment as of this epoch.  Queries split and
    #: route against this snapshot, so a racing vertex deletion on the live
    #: partitioning can never crash or tear a lock-free read (an
    #: isolated-vertex insert registers here, see above).
    assignment: Dict[int, int] = field(default_factory=dict)
    #: How long :meth:`DSRIndex.build_epoch_state` held the mutation lock
    #: (cut and boundary copies + local-graph copies) building this state.
    build_snapshot_seconds: float = 0.0
    #: How long the unlocked heavy part (summaries, compound graphs,
    #: condensations) of the build took.
    build_heavy_seconds: float = 0.0
    #: Wall-clock seconds per flush stage: ``summarise`` / ``assemble`` /
    #: ``condense`` split the heavy part, ``hydrate`` is added by
    #: :meth:`DSRIndex.publish` just before the swap.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: The partitions whose summaries this state rebuilt; every other
    #: summary is the previous epoch's object, and so is a rebuilt one that
    #: came out equal to it.
    resummarised: FrozenSet[int] = frozenset()
    #: The cut the compound graphs were assembled with, as a graph piece
    #: (``kernels.np_edges_piece((), cut_edges)``; every state the index
    #: builds has one): the next flush diffs its cut against it.
    cut_piece: Optional[tuple] = None
    #: The partitions whose compound graph kept the previous epoch's
    #: condensation instead of running Tarjan (see
    #: :func:`~repro.core.compound_graph.condensation_holds`).
    kept_condensations: FrozenSet[int] = frozenset()

    def vertex_rank(self, partition_id: int):
        """The stable vertex-rank numbering of one partition's compound graph.

        Every packed row and mask of this epoch — in-process, on the wire,
        and inside hydrated worker processes — is addressed in this
        numbering; it is frozen with the compound graph's CSR snapshot, so
        it cannot drift until the next epoch swaps in a new compound graph
        (whose snapshot then defines the next numbering).
        """
        return self.compound_graphs[partition_id].vertex_rank


class DSRIndex:
    """Precomputed index structures for distributed set reachability."""

    #: What partition summaries are swept with (see
    #: :func:`repro.core.summary.build_partition_summary`); fixed.
    summary_strategy = SUMMARY_STRATEGY

    def __init__(
        self,
        partitioning: GraphPartitioning,
        use_equivalence: bool = True,
        cluster: Optional[SimulatedCluster] = None,
        shard_hydration: bool = True,
    ) -> None:
        self.partitioning = partitioning
        self.use_equivalence = use_equivalence
        self.cluster = cluster or SimulatedCluster(partitioning.num_partitions)
        #: Whether this index ships worker shards to a sharded executor.
        #: Exactly one index per cluster may hydrate (shards are keyed by
        #: (rank, epoch) on the workers): an engine's optional reverse index
        #: shares the forward cluster and must opt out, so its queries run on
        #: the always-available in-process path instead.
        self.shard_hydration = shard_hydration

        self.build_report: Optional[IndexBuildReport] = None
        self._state: Optional[EpochState] = None
        self._publish_lock = threading.Lock()
        #: Shared-memory segment ledger for zero-copy shard hydration
        #: (created lazily on the first sharded publish; None when the
        #: executor never hydrates or shm is unavailable/disabled).
        self._shm_ledger = None
        #: When the serving epoch was published: monotonic clock for ages,
        #: unix time for exposition.  ``None`` before the first publish.
        self._published_monotonic: Optional[float] = None
        self._published_unix: Optional[float] = None

    # ------------------------------------------------------------------ #
    # epoch state access
    # ------------------------------------------------------------------ #
    @property
    def num_partitions(self) -> int:
        return self.partitioning.num_partitions

    @property
    def is_built(self) -> bool:
        return self._state is not None

    @property
    def epoch(self) -> int:
        """The currently published epoch (-1 before the first build)."""
        state = self._state
        return state.epoch if state is not None else -1

    def current_state(self) -> EpochState:
        """The published epoch state (capture once per query)."""
        state = self._state
        if state is None:
            raise RuntimeError("index not built")
        return state

    # Legacy dict attributes delegate to the published epoch state, so read
    # paths and the update mirrors (see EpochState) address the current one.
    @property
    def local_graphs(self) -> Dict[int, DiGraph]:
        return self.current_state().local_graphs

    @property
    def summaries(self) -> Dict[int, PartitionSummary]:
        return self.current_state().summaries

    @property
    def compound_graphs(self) -> Dict[int, CompoundGraph]:
        return self.current_state().compound_graphs

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self) -> IndexBuildReport:
        """Run the three-phase distributed index build (publishes epoch 0)."""
        self.cluster.reset_stats()
        local_graphs = {
            pid: self.partitioning.local_subgraph(pid)
            for pid in range(self.num_partitions)
        }

        # Phase 1: every slave summarises its own partition.
        def summarise(rank: int) -> PartitionSummary:
            return build_partition_summary(
                partition_id=rank,
                local_graph=local_graphs[rank],
                in_boundaries=self.partitioning.in_boundaries(rank),
                out_boundaries=self.partitioning.out_boundaries(rank),
                use_equivalence=self.use_equivalence,
            )

        summaries = self.cluster.run_phase("summarise", summarise)

        # Phase 2: broadcast summaries (all-to-all exchange).
        summary_bytes = self._broadcast(summaries, tag="summary")

        # Phase 3: every slave assembles and condenses its compound graph.
        cut_piece = kernels.np_edges_piece((), self.partitioning.cut_edges())

        def assemble(rank: int) -> CompoundGraph:
            return build_compound_graph(
                partition_id=rank,
                local_graph=local_graphs[rank],
                summaries=summaries,
                cut_piece=cut_piece,
            )

        compound_graphs = self.cluster.run_phase("assemble", assemble)
        self.publish(
            EpochState(
                epoch=0,
                local_graphs=local_graphs,
                summaries=summaries,
                compound_graphs=compound_graphs,
                boundary_sets={
                    pid: self.partitioning.in_boundaries(pid)
                    | self.partitioning.out_boundaries(pid)
                    for pid in range(self.num_partitions)
                },
                assignment=dict(self.partitioning.assignment),
                cut_piece=cut_piece,
            )
        )

        self.build_report = IndexBuildReport(
            build_seconds=self.cluster.stats.total_seconds,
            parallel_build_seconds=self.cluster.stats.parallel_seconds,
            summary_bytes=summary_bytes,
            per_partition_original_edges={
                pid: cg.original_num_edges() for pid, cg in compound_graphs.items()
            },
            per_partition_dag_edges={
                pid: cg.dag_num_edges() for pid, cg in compound_graphs.items()
            },
            per_partition_bytes={
                pid: cg.estimated_bytes() for pid, cg in compound_graphs.items()
            },
        )
        return self.build_report

    def _broadcast(
        self, summaries: Dict[int, PartitionSummary], tag: str, only: Optional[Iterable[int]] = None
    ) -> int:
        """All-to-all summary exchange with byte accounting (one round)."""
        summary_bytes = 0
        source_ranks = sorted(summaries) if only is None else sorted(only)
        for source_rank in source_ranks:
            for dest_rank in range(self.num_partitions):
                if dest_rank == source_rank:
                    continue
                message = self.cluster.network.send(
                    source_rank, dest_rank, summaries[source_rank], tag=tag
                )
                summary_bytes += message.size_bytes
        self.cluster.complete_round()
        # Drain the inboxes (every slave now has every refreshed summary).
        for rank in range(self.num_partitions):
            self.cluster.deliver(rank)
        return summary_bytes

    # ------------------------------------------------------------------ #
    # epoch construction and publication
    # ------------------------------------------------------------------ #
    def build_epoch_state(
        self,
        dirty: Set[int],
        local_deletes: Dict[int, List[Tuple[int, int]]],
        mutation_lock: Optional[threading.RLock] = None,
    ) -> EpochState:
        """Build the next epoch's state off the hot path (no publication).

        A partition's summary is a function of its local graph, ``I_i`` and
        ``O_i`` alone, so only two kinds of partition are re-summarised:
        the ``dirty`` ones, and those of ``local_deletes`` (partition →
        local edges deleted since its summary) where some deleted
        ``(u, v)`` no longer has a local ``u ⇝ v`` path.  A delete whose
        path survives removes no local reachable pair, and every other
        update that can change a summary's inputs marks its partition
        dirty, so every other summary is carried over as the same object
        (:attr:`EpochState.resummarised` names the rebuilt ones).

        The *snapshot* part — copying the cut and the candidate partitions'
        boundaries, which the partitioning maintains as updates arrive
        (:meth:`~repro.partition.partition.GraphPartitioning.edge_added`
        and friends), and a private copy of every partition's local
        subgraph — runs under ``mutation_lock``
        (the maintainer's update lock) so it can never race a concurrent
        graph mutation; the *heavy* part (the delete check on those copies,
        summaries, compound graphs, condensations) runs unlocked, which is
        what lets queries keep being answered from the current epoch while
        this builds.

        The snapshot copies *all* partitions' local graphs, not just the
        candidate ones (bulk set copies, see :meth:`DiGraph.copy`), so
        updates stall for O(V+E) per flush; queries are never stalled.  A
        clean partition's published local graph cannot be shared instead:
        the update mirrors (a non-structural edge insert, a local delete, an
        isolated vertex) edit it in place while the unlocked heavy phase
        would iterate it.  A candidate partition is copied from the live
        data graph, never from the published copy: a mirror that lands
        while an earlier flush is in flight edits the epoch that flush
        replaces, so the copy it publishes can still hold an edge deleted
        since — the delete check must not read it.
        The heavy phase reassembles every compound graph straight into a
        CSR snapshot, whether or not its inputs changed (numpy array
        constructions), and condenses it: with the previous epoch's SCC
        numbering when :func:`~repro.core.compound_graph.condensation_holds`
        proves it still right for the edges that changed, with Tarjan
        otherwise (:meth:`_condense`).  A re-summarised partition whose
        summary comes out equal to the published one keeps the published
        object, so the compound graphs see no change from it.
        """
        current = self.current_state()
        dirty = set(dirty)
        local_deletes = {
            pid: edges for pid, edges in local_deletes.items() if pid not in dirty
        }
        lock = mutation_lock if mutation_lock is not None else threading.RLock()
        snapshot_start = time.perf_counter()
        with lock:
            # Snapshot phase: freeze everything the heavy phase will read.
            cut_edges = self.partitioning.cut_edges()
            # Every partition's local graph is copied under the lock — clean
            # ones included.  Sharing a clean partition's DiGraph with the
            # published state would let a concurrent update mirror mutate
            # it while the unlocked heavy phase below iterates it.  Dirty
            # and recorded partitions come from the live graph: a published
            # copy can miss a mirror that raced an earlier flush.
            local_graphs = {
                pid: (
                    self.partitioning.local_subgraph(pid)
                    if pid in dirty or pid in local_deletes
                    else current.local_graphs[pid].copy()
                )
                for pid in range(self.num_partitions)
            }
            assignment = dict(self.partitioning.assignment)
            boundary_sets = dict(current.boundary_sets)
            # What each published compound graph was condensed from, read
            # under the lock that an isolated-vertex insert edits it under.
            bases = {
                pid: compound.reuse_base()
                for pid, compound in current.compound_graphs.items()
            }
            boundaries: Dict[int, Tuple[Set[int], Set[int]]] = {
                pid: (
                    self.partitioning.in_boundaries(pid),
                    self.partitioning.out_boundaries(pid),
                )
                for pid in dirty | local_deletes.keys()
            }

        snapshot_seconds = time.perf_counter() - snapshot_start
        heavy_start = time.perf_counter()

        # Heavy phase (no locks held): re-summarise the dirty partitions and
        # those a recorded delete cut a local path in...
        # Timings go to a private record folded into the cumulative totals
        # as O(1) aggregates (same as queries): a long-lived service under a
        # steady update stream must not grow the phase list per flush.
        flush_stats = ClusterStats()
        summaries = dict(current.summaries)
        for pid, edges in local_deletes.items():
            graph = local_graphs[pid]
            if not all(is_reachable(graph, u, v) for u, v in edges):
                dirty.add(pid)
        for pid in dirty:
            boundary_sets[pid] = boundaries[pid][0] | boundaries[pid][1]

        def summarise(rank: int) -> PartitionSummary:
            return build_partition_summary(
                partition_id=rank,
                local_graph=local_graphs[rank],
                in_boundaries=boundaries[rank][0],
                out_boundaries=boundaries[rank][1],
                use_equivalence=self.use_equivalence,
            )

        if dirty:
            refreshed = self.cluster.run_phase(
                "summarise-epoch", summarise, workers=sorted(dirty), stats=flush_stats
            )
            summaries.update(
                (pid, summary)
                for pid, summary in refreshed.items()
                if summary != current.summaries[pid]
            )
            self._broadcast(summaries, tag="summary-update", only=sorted(dirty))
        summarised = time.perf_counter()

        # ... then reassemble every compound graph against the new summaries
        # and condense it (two phases so each is timed on its own).
        cut_piece = kernels.np_edges_piece((), cut_edges)

        def assemble(rank: int) -> CompoundGraph:
            return assemble_compound_graph(
                partition_id=rank,
                local_graph=local_graphs[rank],
                summaries=summaries,
                cut_piece=cut_piece,
            )

        compound_graphs = self.cluster.run_phase(
            "assemble-epoch", assemble, stats=flush_stats
        )
        assembled = time.perf_counter()
        kept = self._condense(
            current, bases, compound_graphs, summaries, cut_piece, flush_stats
        )
        self.cluster.stats.absorb(flush_stats)
        condensed = time.perf_counter()
        heavy_seconds = condensed - heavy_start
        registry = global_registry()
        if registry.enabled:
            registry.observe("dsr_flush_snapshot_seconds", snapshot_seconds)
            registry.observe("dsr_flush_heavy_seconds", heavy_seconds)
            registry.inc("dsr_flush_condensations_total", len(kept), outcome="kept")
            registry.inc(
                "dsr_flush_condensations_total",
                len(compound_graphs) - len(kept),
                outcome="tarjan",
            )
        return EpochState(
            epoch=current.epoch + 1,
            local_graphs=local_graphs,
            summaries=summaries,
            compound_graphs=compound_graphs,
            boundary_sets=boundary_sets,
            assignment=assignment,
            build_snapshot_seconds=snapshot_seconds,
            build_heavy_seconds=heavy_seconds,
            stage_seconds={
                "summarise": summarised - heavy_start,
                "assemble": assembled - summarised,
                "condense": condensed - assembled,
            },
            resummarised=frozenset(dirty),
            cut_piece=cut_piece,
            kept_condensations=kept,
        )

    def _condense(
        self,
        current: EpochState,
        bases: Dict[int, Optional[tuple]],
        compound_graphs: Dict[int, CompoundGraph],
        summaries: Dict[int, PartitionSummary],
        cut_piece: tuple,
        stats: ClusterStats,
    ) -> FrozenSet[int]:
        """Condense every new compound graph; return those that kept a numbering.

        Compound graph ``i`` keeps the published condensation when
        :func:`~repro.core.compound_graph.condensation_holds` accepts the
        edges that changed since it was assembled.  They come from the pieces
        ``G^C_i`` is assembled from, which share no edge, never from diffing
        whole compound graphs: the cut's change (once, shared by every
        compound graph), each remote summary's change (only for a new
        summary object) and the local piece's change against the local
        snapshot the published graph was assembled from (none when it is
        the same snapshot).  A clean partition's local graph changes too,
        through the update mirrors, so only the snapshot identity tells.
        """
        cut_changes = kernels.np_edge_delta(current.cut_piece[2:], cut_piece[2:])
        old_summaries = current.summaries
        summary_changes = {
            pid: kernels.np_edge_delta(
                old_summaries[pid].contribution_arrays()[2:],
                summary.contribution_arrays()[2:],
            )
            for pid, summary in summaries.items()
            if summary is not old_summaries.get(pid)
        }

        def condense(rank: int) -> bool:
            compound = compound_graphs[rank]
            kept = None
            base = bases.get(rank)
            if base is not None:
                old_local, view = base
                changes = [cut_changes]
                if compound.local_snapshot is not old_local:
                    changes.append(
                        kernels.np_edge_delta(
                            kernels.np_csr_piece(old_local)[2:],
                            kernels.np_csr_piece(compound.local_snapshot)[2:],
                        )
                    )
                changes += (found for pid, found in summary_changes.items() if pid != rank)
                inserted = [edge for found in changes for edge in found[0]]
                deleted = [edge for found in changes for edge in found[1]]
                if condensation_holds(view, compound.graph, inserted, deleted):
                    kept = view
            compound.build_reachability(kept)
            return kept is not None

        outcomes = self.cluster.run_phase("condense-epoch", condense, stats=stats)
        return frozenset(rank for rank, kept in outcomes.items() if kept)

    def publish(self, state: EpochState) -> None:
        """Atomically swap ``state`` in as the current epoch.

        Sharded executors are hydrated with the new epoch's worker shards
        *before* the swap: a query that captured the previous epoch keeps
        its shards (workers retain two epochs), a query arriving after the
        swap finds the new epoch already worker-resident.
        """
        with self._publish_lock:
            hydrate_start = time.perf_counter()
            self._hydrate_shards(state)
            state.stage_seconds["hydrate"] = time.perf_counter() - hydrate_start
            self._state = state
            self._published_monotonic = time.monotonic()
            self._published_unix = time.time()
        registry = global_registry()
        if registry.enabled:
            registry.inc("dsr_epochs_published_total")
            registry.set_gauge("dsr_epoch", state.epoch)
            registry.set_gauge("dsr_epoch_published_timestamp_seconds", self._published_unix)

    def epoch_age_seconds(self) -> Optional[float]:
        """Age of the serving epoch (time since its publish), a.k.a. epoch
        lag — how stale the answers a reader gets right now can be.  ``None``
        before the first publish."""
        published = self._published_monotonic
        if published is None:
            return None
        return time.monotonic() - published

    @property
    def published_at_unix(self) -> Optional[float]:
        """Unix timestamp of the serving epoch's publish (``None`` pre-build)."""
        return self._published_unix

    @property
    def uses_sharded_queries(self) -> bool:
        """True when queries against this index run through worker shards."""
        return self.shard_hydration and self.cluster.wants_sharded_queries

    def _ensure_ledger(self):
        """The index's shm ledger, created on first use (None when disabled).

        Availability is re-checked per call (not latched) so ``REPRO_SHM=0``
        can force the pickled fallback for a fresh engine without a restart.
        Executors whose workers live outside this machine's address space
        (``supports_shm_hydration = False``, e.g. ``tcp``) always get
        ``None``: their blobs must be self-contained to cross the wire.
        """
        executor = getattr(self.cluster, "executor", None)
        if executor is not None and not getattr(
            executor, "supports_shm_hydration", True
        ):
            return None
        if self._shm_ledger is None:
            from repro.cluster.shm import ShmLedger, shm_available

            if shm_available():
                self._shm_ledger = ShmLedger()
        return self._shm_ledger

    def _record_publish_bytes(self, blobs) -> None:
        """Account the bytes each publish pushes through worker sockets.

        ``dsr_epoch_publish_bytes`` is the exact pickled size of every
        hydration blob of the publish — in shm mode the blobs carry segment
        names instead of CSR payloads, so this gauge is what the publish-cost
        benchmark compares against the pickled baseline.  Computed only when
        metrics are enabled (the extra pickle pass is pure accounting).
        """
        registry = global_registry()
        if not registry.enabled:
            return
        import pickle

        total = sum(len(pickle.dumps(blob, protocol=-1)) for blob in blobs.values())
        registry.set_gauge("dsr_epoch_publish_bytes", total)

    def _hydrate_shards(self, state: EpochState) -> None:
        if not self.uses_sharded_queries:
            return
        from repro.core.shard_exec import DSR_SHARD_LOADER, build_shard_blob

        ledger = self._ensure_ledger()
        blobs = {
            rank: build_shard_blob(
                rank,
                state.epoch,
                state.compound_graphs[rank],
                state.summaries[rank],
                ledger=ledger,
            )
            for rank in range(self.num_partitions)
        }
        self._record_publish_bytes(blobs)
        self.cluster.hydrate_shards(
            state.epoch,
            blobs,
            DSR_SHARD_LOADER,
            retire_below=max(0, state.epoch - 1),
        )
        if ledger is not None:
            # Mirror the workers' retain window: segments for epochs the
            # workers just dropped are unlinked here (an unlink never tears
            # an in-flight reader — mappings survive until detached).
            ledger.retire_below(max(0, state.epoch - 1))

    def close(self) -> None:
        """Release publish-side resources (shared-memory segments)."""
        ledger, self._shm_ledger = self._shm_ledger, None
        if ledger is not None:
            ledger.close()

    def rehydrate_partition(self, partition_id: int) -> None:
        """Refresh one rank's worker shard for the *current* epoch.

        Used after an isolated-vertex insert (the one sanctioned edit of a
        published compound graph) so sharded workers learn the new vertex
        without waiting for a full epoch flush.
        """
        if not self.uses_sharded_queries or not self.is_built:
            return
        from repro.core.shard_exec import DSR_SHARD_LOADER, build_shard_blob

        state = self.current_state()
        blob = build_shard_blob(
            partition_id,
            state.epoch,
            state.compound_graphs[partition_id],
            state.summaries[partition_id],
            ledger=self._ensure_ledger(),
        )
        self.cluster.hydrate_shards(state.epoch, {partition_id: blob}, DSR_SHARD_LOADER)

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def boundary_stats(self, partition_id: int) -> BoundaryGraphStats:
        """Boundary-graph size statistics for one partition (Table 4)."""
        return boundary_graph_stats(
            partition_id, self.summaries, self.partitioning.cut_edges()
        )

    def total_boundary_entries(self) -> Tuple[int, int]:
        """Total forward/backward entry handles across all partitions.

        Reads one consistent epoch state (a single capture), so the numbers
        are never mixed across a concurrent epoch swap.
        """
        summaries = self.current_state().summaries
        forward = sum(len(s.forward_handles()) for s in summaries.values())
        backward = sum(len(s.backward_handles()) for s in summaries.values())
        return forward, backward

    def index_sizes(self) -> Dict[str, object]:
        """Table-2-style index size summary."""
        if self.build_report is None:
            raise RuntimeError("index not built")
        return {
            "max_original_edges": self.build_report.max_original_edges,
            "max_dag_edges": self.build_report.max_dag_edges,
            "total_bytes": self.build_report.total_bytes,
            "summary_bytes": self.build_report.summary_bytes,
        }
