"""Incremental maintenance of the DSR index (Section 3.3.3), epoch-versioned.

A partition's summary (its boundaries, Definition-5 classes and boundary
reachability) is a function of three inputs only: its local graph ``G_i``,
``I_i`` and ``O_i``.  So every update makes two separate decisions: whether
the published epoch is *stale* (a compound graph changed, so the next flush
must publish), and whether a partition is *dirty* (its summary may have
changed, so the next flush must re-summarise it and re-broadcast it for the
other slaves to re-merge into their compound graphs).

Insertions
----------
* A local edge ``(u, v)`` with ``u ⇝ v`` already holding inside the
  partition's *local* graph cannot change any reachability, so it is applied
  to the stored graphs and otherwise ignored.  (Lying in the same SCC of the
  compound graph is not enough: a pair connected only through another
  partition gains a local path the partition's summary must report.  It is
  still asked for, as a cheap screen before the local traversal, so on an
  acyclic compound graph such an edge marks its partition dirty anyway.)
* Any other local edge marks its partition dirty.
* A cut edge ``(u, v)`` with ``u ∈ V_p`` and ``v ∈ V_q`` never changes
  intra-partition reachability, but it is in every compound graph, so it
  always makes the epoch stale.  It marks ``p`` dirty only if ``u`` enters
  ``O_p``, and ``q`` only if ``v`` enters ``I_q``: between existing
  boundaries it re-summarises nothing.

Every update also reports its edit to the partitioning, which maintains the
cut and the boundary sets (:meth:`~repro.partition.partition.
GraphPartitioning.edge_added` and friends) under the same mutation lock, so a
flush reads them instead of re-deriving them from every edge; the cut-edge
calls return which partitions' boundary sets changed.

Deletions
---------
* A cut edge follows the insert rule: the epoch is stale, and a side is
  dirty only if its endpoint leaves ``O_p`` (``I_q``).
* A local edge ``(u, v)`` makes the epoch stale and is *recorded*, not
  marked dirty.  The flush checks it in its unlocked heavy phase, on its
  snapshot of ``G_p`` (read from the live graph, as a dirty partition's
  is): ``p`` is re-summarised only if some recorded ``(u, v)`` no longer
  has a local ``u ⇝ v`` path.  That is sound because a skipped insert
  already had its ``u ⇝ v`` path and a delete whose path survives removes
  no reachable pair, so local reachability is unchanged, and the classes,
  representatives and stored boundary edges are functions of local
  reachability and the boundaries.
* A vertex delete marks every partition it touches dirty; its summary is
  recomputed from the stored (uncondensed) local subgraph — the same
  strategy as the paper, whose deletion cost is therefore close to
  rebuilding that partition's boundary information.

Batching and epochs
-------------------
Recomputing summaries and re-merging compound graphs per *individual* edge
would be wasteful, so maintenance is deferred: updates mutate the graph and
record staleness, dirty partitions and local deletes;
:meth:`IncrementalMaintainer.flush` performs the recomputation once for the
whole batch — as a **new epoch**.  The flush asks
the index for the next :class:`~repro.core.index.EpochState` (built off the
hot path, with only a brief snapshot section under the mutation lock) and
atomically publishes it, so a query running concurrently with a flush always
sees either epoch ``N`` or epoch ``N+1``, never a half-merged view.

:meth:`request_background_flush` runs the same flush on a coalescing daemon
thread — the engine's ``epoch_flush="background"`` mode — so queries are never
blocked behind maintenance: they keep reading epoch ``N`` until ``N+1`` swaps
in.  All mutating entry points take one re-entrant mutation lock, making the
maintainer safe to drive from a concurrent service.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.index import DSRIndex, EpochState
from repro.graph.traversal import is_reachable
from repro.obs.runtime import global_registry


@dataclass
class UpdateResult:
    """Outcome of a single incremental update."""

    kind: str
    affected_partitions: Set[int]
    structural_change: bool
    seconds: float
    flushed: bool = False


@dataclass
class FlushResult:
    """Outcome of one maintenance flush."""

    #: The partitions whose summaries this flush rebuilt.  A published flush
    #: may have none: a cut edge between existing boundaries, or a local
    #: delete that leaves local reachability intact, changes compound graphs
    #: only.  Read :attr:`published` to know whether an epoch was swapped in.
    refreshed_partitions: Set[int] = field(default_factory=set)
    seconds: float = 0.0
    #: The epoch this flush published (the pre-flush epoch if nothing was
    #: pending).
    epoch: int = -1
    #: Whether this flush published a new epoch (False for no-op flushes).
    published: bool = False
    #: Time the epoch build held the mutation lock (0.0 for no-op flushes).
    snapshot_seconds: float = 0.0
    #: Time of the unlocked heavy rebuild (0.0 for no-op flushes).
    heavy_seconds: float = 0.0
    #: The heavy rebuild by stage — re-summarising (the delete check and
    #: :attr:`refreshed_partitions`), reassembling every compound graph,
    #: condensing them — and the shard
    #: hydration of the publish that followed (a no-op unless the executor
    #: keeps worker shards).
    summarise_seconds: float = 0.0
    assemble_seconds: float = 0.0
    condense_seconds: float = 0.0
    hydrate_seconds: float = 0.0
    #: The partitions whose compound graph kept the previous epoch's
    #: condensation (no Tarjan run); every other one was condensed afresh.
    kept_condensations: Set[int] = field(default_factory=set)


class IncrementalMaintainer:
    """Applies edge/vertex updates to a graph and its DSR index."""

    def __init__(self, index: DSRIndex, auto_flush: bool = False) -> None:
        self.index = index
        self.partitioning = index.partitioning
        self.graph = index.partitioning.graph
        self.auto_flush = auto_flush
        #: Partitions whose summary the next flush must rebuild.
        self._dirty: Set[int] = set()
        #: Local edge deletes of partitions not (yet) dirty: the next flush
        #: re-summarises such a partition only if one of them broke local
        #: reachability (see :meth:`DSRIndex.build_epoch_state`).
        self._local_deletes: Dict[int, List[Tuple[int, int]]] = {}
        #: Whether the published epoch lags the graph (set by every update a
        #: compound graph can see, dirty or not; ``_dirty`` implies it).
        self._stale = False
        self._update_listeners: List[Callable[[UpdateResult], None]] = []
        self._flush_listeners: List[Callable[[FlushResult], None]] = []
        #: Serialises graph/partitioning mutations against the flush's
        #: snapshot phase (re-entrant: flush's snapshot runs under it too).
        self._mutation_lock = threading.RLock()
        #: Serialises whole flushes (one epoch build at a time).
        self._flush_lock = threading.Lock()
        # Background-flush machinery (coalescing worker thread).
        self._bg_lock = threading.Lock()
        self._bg_thread: Optional[threading.Thread] = None
        self._bg_requested = False
        self._bg_idle = threading.Event()
        self._bg_idle.set()
        self.background_flush_error: Optional[BaseException] = None
        #: Test seam: called with the built (unpublished) EpochState right
        #: before the atomic swap — lets races around the swap be staged.
        self._before_publish: Optional[Callable[[EpochState], None]] = None
        # Maintenance counters (mirrored into the metrics registry; kept as
        # plain attributes too so `maintenance_stats()` reads them without
        # going through the registry's label plumbing).
        self._flush_count = 0
        self._noop_flush_count = 0
        self._bg_request_count = 0
        self._bg_coalesced_count = 0
        #: The most recent non-trivial flush (None until one happens).
        self.last_flush: Optional[FlushResult] = None

    # ------------------------------------------------------------------ #
    # observers
    # ------------------------------------------------------------------ #
    def add_update_listener(self, listener: Callable[[UpdateResult], None]) -> None:
        """Call ``listener(update_result)`` after every applied update.

        The listener runs *before* the batched flush, i.e. at the moment the
        index first diverges from its last consistent state — the right point
        for an eagerly invalidating result cache (an epoch-invalidating cache
        subscribes to the flush stream instead and keeps serving the
        still-published epoch).
        """
        self._update_listeners.append(listener)

    def add_flush_listener(self, listener: Callable[[FlushResult], None]) -> None:
        """Call ``listener(flush_result)`` after every flush that published an epoch."""
        self._flush_listeners.append(listener)

    def remove_listener(self, listener: Callable) -> None:
        """Detach a previously registered update or flush listener."""
        if listener in self._update_listeners:
            self._update_listeners.remove(listener)
        if listener in self._flush_listeners:
            self._flush_listeners.remove(listener)

    def _notify(self, result: UpdateResult) -> UpdateResult:
        for listener in self._update_listeners:
            listener(result)
        return result

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #
    @property
    def has_pending_changes(self) -> bool:
        """Whether the next flush publishes an epoch (read-your-writes)."""
        return self._stale

    @property
    def epoch(self) -> int:
        """The index's currently published epoch."""
        return self.index.epoch

    def flush(self) -> FlushResult:
        """Build the next epoch if the published one is stale, and swap it in.

        The epoch re-summarises the dirty partitions, plus any partition a
        recorded local delete cut a path in.  The heavy recomputation
        (that check, summaries, compound graphs, condensations) runs without
        holding the mutation lock; queries keep reading the current epoch
        throughout and flip to the new one at the atomic publish.  Safe to
        call from any thread; concurrent flushes serialise.
        """
        start = time.perf_counter()
        with self._flush_lock:
            with self._mutation_lock:
                stale, dirty = self._stale, set(self._dirty)
                local_deletes, self._local_deletes = self._local_deletes, {}
                self._stale = False
                self._dirty.clear()
            registry = global_registry()
            if not stale:
                self._noop_flush_count += 1
                if registry.enabled:
                    registry.inc("dsr_flushes_total", outcome="noop")
                return FlushResult(
                    refreshed_partitions=set(),
                    seconds=time.perf_counter() - start,
                    epoch=self.index.epoch,
                )
            result = self._build_and_publish(dirty, local_deletes, start)
        for listener in self._flush_listeners:
            listener(result)
        return result

    def _build_and_publish(
        self,
        dirty: Set[int],
        local_deletes: Dict[int, List[Tuple[int, int]]],
        start: float,
    ) -> FlushResult:
        """Build the next epoch, publish it, account for it.

        Runs under the flush lock.  On failure the batch was not applied:
        the staleness, the dirt and the recorded deletes go back so the next
        flush retries it rather than silently dropping maintenance.
        """
        registry = global_registry()
        try:
            state = self.index.build_epoch_state(
                dirty, local_deletes, mutation_lock=self._mutation_lock
            )
            if self._before_publish is not None:
                self._before_publish(state)
            self.index.publish(state)
        except BaseException:
            with self._mutation_lock:
                self._mark_stale(dirty)
                for pid, edges in local_deletes.items():
                    self._local_deletes.setdefault(pid, []).extend(edges)
            if registry.enabled:
                registry.inc("dsr_flushes_total", outcome="error")
            raise
        stages = state.stage_seconds
        result = FlushResult(
            refreshed_partitions=set(state.resummarised),
            seconds=time.perf_counter() - start,
            epoch=state.epoch,
            published=True,
            snapshot_seconds=state.build_snapshot_seconds,
            heavy_seconds=state.build_heavy_seconds,
            summarise_seconds=stages["summarise"],
            assemble_seconds=stages["assemble"],
            condense_seconds=stages["condense"],
            hydrate_seconds=stages["hydrate"],
            kept_condensations=set(state.kept_condensations),
        )
        self._flush_count += 1
        self.last_flush = result
        if registry.enabled:
            registry.inc("dsr_flushes_total", outcome="published")
            registry.observe("dsr_flush_seconds", result.seconds)
            for stage, seconds in stages.items():
                registry.observe("dsr_flush_stage_seconds", seconds, stage=stage)
        return result

    # ------------------------------------------------------------------ #
    # background (off-hot-path) flushing
    # ------------------------------------------------------------------ #
    def request_background_flush(self) -> None:
        """Schedule a flush on the coalescing background worker.

        Multiple requests while a flush is running fold into one follow-up
        flush; the worker exits when no request is pending.  Errors are kept
        in :attr:`background_flush_error` — surfaced through
        ``DSRService.stats()`` — and the pending batch is restored by
        :meth:`flush`, so the next request (cleared below) retries the whole
        batch.
        """
        with self._bg_lock:
            self.background_flush_error = None
            self._bg_request_count += 1
            if self._bg_requested:
                # A request while one is already pending folds into the same
                # upcoming flush — the coalescing the counter makes visible.
                self._bg_coalesced_count += 1
                registry = global_registry()
                if registry.enabled:
                    registry.inc("dsr_flush_requests_coalesced_total")
            self._bg_requested = True
            registry = global_registry()
            if registry.enabled:
                registry.inc("dsr_flush_requests_total")
            if self._bg_thread is None or not self._bg_thread.is_alive():
                self._bg_idle.clear()
                self._bg_thread = threading.Thread(
                    target=self._background_loop, name="dsr-epoch-flush", daemon=True
                )
                self._bg_thread.start()

    def _background_loop(self) -> None:
        while True:
            with self._bg_lock:
                if not self._bg_requested:
                    self._bg_thread = None
                    self._bg_idle.set()
                    return
                self._bg_requested = False
            try:
                self.flush()
            except BaseException as exc:  # pragma: no cover - defensive
                self.background_flush_error = exc

    def wait_for_flushes(self, timeout: Optional[float] = None) -> bool:
        """Block until no background flush is pending (False on timeout)."""
        return self._bg_idle.wait(timeout)

    def maintenance_stats(self) -> Dict[str, Any]:
        """Epoch/flush instrumentation snapshot for the exposition surface.

        Includes the snapshot-vs-heavy phase split of the last published
        flush and its heavy part by stage (summarise / assemble / condense /
        hydrate), the publish timestamp, the serving epoch's age (epoch lag)
        and the background-flush coalescing counters.
        """
        last = self.last_flush
        return {
            "epoch": self.index.epoch,
            "epoch_age_seconds": self.index.epoch_age_seconds(),
            "epoch_published_at": self.index.published_at_unix,
            "flushes": self._flush_count,
            "noop_flushes": self._noop_flush_count,
            "background_requests": self._bg_request_count,
            "coalesced_requests": self._bg_coalesced_count,
            "last_flush_seconds": last.seconds if last else None,
            "last_flush_snapshot_seconds": last.snapshot_seconds if last else None,
            "last_flush_heavy_seconds": last.heavy_seconds if last else None,
            "last_flush_summarise_seconds": last.summarise_seconds if last else None,
            "last_flush_assemble_seconds": last.assemble_seconds if last else None,
            "last_flush_condense_seconds": last.condense_seconds if last else None,
            "last_flush_hydrate_seconds": last.hydrate_seconds if last else None,
            "last_flush_epoch": last.epoch if last else None,
        }

    def _mark_stale(self, dirty=()) -> None:
        """The published epoch lags the graph; ``dirty`` need re-summarising."""
        self._stale = True
        self._dirty.update(dirty)

    def _after_update(self, stale: bool) -> None:
        """Run the auto-flush *outside* the mutation lock (deadlock-free)."""
        if stale and self.auto_flush:
            self.flush()

    # ------------------------------------------------------------------ #
    # edge updates
    # ------------------------------------------------------------------ #
    def insert_edge(self, u: int, v: int) -> UpdateResult:
        """Insert edge ``(u, v)``; endpoints must already exist."""
        start = time.perf_counter()
        stale = False
        with self._mutation_lock:
            for vertex in (u, v):
                if not self.graph.has_vertex(vertex):
                    raise ValueError(f"vertex {vertex} does not exist; add it first")
            pid_u = self.partitioning.partition_of(u)
            pid_v = self.partitioning.partition_of(v)

            if not self.graph.add_edge(u, v):
                result = UpdateResult(
                    "insert-edge", set(), False, time.perf_counter() - start
                )
            elif pid_u == pid_v:
                local_graph = self.index.local_graphs[pid_u]
                compound = self.index.compound_graphs.get(pid_u)
                # Non-structural only when ``u ⇝ v`` already holds inside
                # the partition: its summary depends on the *local* graph
                # alone, so a pair connected only through other partitions
                # (same SCC of the compound graph, not of the local one)
                # still changes what this partition must tell the others.
                # The skip also asks for ``u`` and ``v`` to share an SCC of
                # the compound graph, an O(1) screen run before the
                # traversal.  Local reachability does not imply it: it is an
                # extra condition of the skip, so while the compound graph
                # is acyclic an edge between two distinct vertices is never
                # skipped, even when ``u ⇝ v`` already holds locally.
                already_reachable = False
                if (
                    pid_u not in self._dirty
                    and compound is not None
                    and compound.reachability is not None
                ):
                    components = compound.reachability.vertex_to_component
                    already_reachable = (
                        components.get(u) is not None
                        and components.get(u) == components.get(v)
                        and is_reachable(local_graph, u, v)
                    )
                # Mirror the edge into the epoch's local graph, which the next
                # flush copies for a clean partition.  The published compound
                # snapshot is left alone: when ``u ⇝ v`` already holds it
                # answers identically without the edge, and otherwise the
                # partition is dirty and the next epoch reassembles it.
                local_graph.add_edge(u, v)
                if already_reachable:
                    # The edge adds no local reachability: no summary or
                    # condensation change is possible (Section 3.3.3).
                    result = UpdateResult(
                        "insert-edge", {pid_u}, False, time.perf_counter() - start
                    )
                else:
                    self._mark_stale({pid_u})
                    stale = True
                    result = UpdateResult(
                        "insert-edge",
                        {pid_u},
                        True,
                        time.perf_counter() - start,
                        flushed=self.auto_flush,
                    )
            else:
                # Cut edge: it is in every compound graph, so the epoch is
                # stale, but a summary changes only with its boundaries.
                self._mark_stale(self.partitioning.edge_added(u, v))
                stale = True
                result = UpdateResult(
                    "insert-edge",
                    {pid_u, pid_v},
                    True,
                    time.perf_counter() - start,
                    flushed=self.auto_flush,
                )
        self._after_update(stale)
        return self._notify(result)

    def delete_edge(self, u: int, v: int) -> UpdateResult:
        """Delete edge ``(u, v)`` if present."""
        start = time.perf_counter()
        stale = False
        with self._mutation_lock:
            if not self.graph.has_edge(u, v):
                result = UpdateResult(
                    "delete-edge", set(), False, time.perf_counter() - start
                )
            else:
                pid_u = self.partitioning.partition_of(u)
                pid_v = self.partitioning.partition_of(v)
                self.graph.remove_edge(u, v)
                if pid_u == pid_v:
                    # The published compound snapshot keeps the edge: the
                    # epoch answers as of its own graph until the flush,
                    # which decides whether the partition's summary changed.
                    self.index.local_graphs[pid_u].remove_edge(u, v)
                    if pid_u not in self._dirty:
                        self._local_deletes.setdefault(pid_u, []).append((u, v))
                    self._mark_stale()
                    affected = {pid_u}
                else:
                    self._mark_stale(self.partitioning.edge_removed(u, v))
                    affected = {pid_u, pid_v}
                stale = True
                result = UpdateResult(
                    "delete-edge",
                    affected,
                    True,
                    time.perf_counter() - start,
                    flushed=self.auto_flush,
                )
        self._after_update(stale)
        return self._notify(result)

    # ------------------------------------------------------------------ #
    # vertex updates
    # ------------------------------------------------------------------ #
    def insert_vertex(
        self, vertex: Optional[int] = None, partition_id: Optional[int] = None
    ) -> int:
        """Insert an isolated vertex and assign it to a partition.

        Without ``vertex`` the new id is the graph's next unused one.  Class
        ids are negative (:func:`repro.core.equivalence.class_id`), so no
        real id can meet one: naming a negative id raises ``GraphError``,
        naming an existing vertex ``ValueError``.
        """
        with self._mutation_lock:
            if vertex is not None and self.graph.has_vertex(vertex):
                # Re-inserting must not silently reassign the vertex's
                # partition: the old partition would keep its edges while the
                # new one claims the vertex, corrupting every later
                # dirty-marking decision.
                raise ValueError(f"vertex {vertex} already exists")
            new_vertex = self.graph.add_vertex(vertex)
            if partition_id is None:
                sizes = [
                    (len(self.partitioning.vertices_of(pid)), pid)
                    for pid in range(self.partitioning.num_partitions)
                ]
                partition_id = min(sizes)[1]
            self.partitioning.vertex_added(new_vertex, partition_id)
            if self.index.is_built:
                state = self.index.current_state()
                state.local_graphs[partition_id].add_vertex(new_vertex)
                # Queries split against the epoch's assignment snapshot, so
                # the new vertex must register there too, and with the
                # partition's compound graph — rebuilt from the epoch's own
                # snapshot plus the vertex (isolated vertex: provably
                # answer-preserving, the one sanctioned edit of a published
                # state).
                state.assignment[new_vertex] = partition_id
                state.compound_graphs[partition_id].add_isolated_vertex(new_vertex)
                if self._flush_lock.locked():
                    # A flush is in flight and its snapshot may predate this
                    # insert — the epoch it publishes would then lack the
                    # vertex (the edits above touched only the *current*
                    # state).  Mark the partition dirty so a
                    # follow-up flush re-derives it from the live graph.
                    # With no flush in flight this is unnecessary: the next
                    # snapshot copies the current state/live assignment,
                    # both of which now contain the vertex.
                    self._mark_stale({partition_id})
        # Sharded workers must learn the new vertex id even though the update
        # is non-structural (no epoch flush will follow it).
        self.index.rehydrate_partition(partition_id)
        # An isolated vertex cannot change reachability between existing
        # vertices, so the update is reported as non-structural.
        self._notify(UpdateResult("insert-vertex", {partition_id}, False, 0.0))
        return new_vertex

    def delete_vertex(self, vertex: int) -> UpdateResult:
        """Delete a vertex together with all incident edges."""
        start = time.perf_counter()
        with self._mutation_lock:
            pid = self.partitioning.partition_of(vertex)
            touched = {pid}
            for neighbour in set(self.graph.successors(vertex)) | set(
                self.graph.predecessors(vertex)
            ):
                touched.add(self.partitioning.partition_of(neighbour))
            self.partitioning.vertex_removed(vertex)
            self.graph.remove_vertex(vertex)
            # Removing a vertex can change the local structure of every
            # touched partition, so recompute them at flush time.
            self._mark_stale(touched)
            result = UpdateResult(
                "delete-vertex",
                touched,
                True,
                time.perf_counter() - start,
                flushed=self.auto_flush,
            )
        self._after_update(True)
        return self._notify(result)
