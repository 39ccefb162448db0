"""The per-slave query steps, written once over a small shard protocol.

Steps 1 and 3 of the one-round query protocol (:mod:`repro.core.query`,
Algorithms 1 and 2) are the two shard tasks :func:`local_step` and
:func:`remote_step` below — their only definitions.  Both are pure reads of
a *shard*: whatever answers the :class:`QueryShard` protocol for slave ``i``
of one epoch.  Two things do:

* :class:`WorkerShard` — the immutable, self-contained slice of the index a
  worker of a sharded executor (``processes``/``tcp``) is *hydrated once per
  epoch* with.  Workers never see the engine's Python object graph; the
  shard carries

  - the CSR snapshot of the slave's **condensed compound graph**, shipped
    via the compact :meth:`repro.graph.csr.CSRGraph.to_bytes` serialisation;
  - the vertex → SCC-component mapping of that condensation;
  - the forward entry handles of every remote partition (so step-1 payloads
    stay small: the parent names partitions, the worker knows their handles);
  - its own summary's handle → representative expansion table for step 3

  — stateless per query, nothing to keep in sync.

* :class:`EpochShard` — a thin in-process view over ``(EpochState, rank)``
  whose rows come from the compound graph's published condensation.  It
  serves every non-sharded configuration, the reverse index (which shares
  the forward cluster but not its workers) and the stale-epoch last-resort
  fallback.

Both answer ``rows`` with the one kernel,
:func:`repro.core.packed_steps.condensation_rows`: the bitset one-pass
sweep over the condensation, whichever executor runs and in either
direction.

The tasks are registered with the executor registry
(:mod:`repro.cluster.executors`) under ``dsr.local_step`` /
``dsr.remote_step`` and must stay pure reads of the shard: one hydrated
epoch serves every in-flight query of that epoch concurrently.  Nothing
edits a published epoch, so both shards of one ``(rank, epoch)`` number
its vertices identically for the epoch's whole life, and a payload packed
against the epoch decodes on either; a worker asked for an epoch it has
retired raises ``StaleEpochError`` before the task runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Protocol, Tuple

from repro.cluster.executors import register_shard_loader, register_shard_task
from repro.core.packed_steps import build_expansion, condensation_rows
from repro.graph.csr import CSRGraph
from repro.obs.runtime import global_registry
from repro.reachability.packed import (
    BitGather,
    VertexRank,
    handle_gather,
    row_from_bytes,
    row_to_bytes,
)
from repro.resilience.failpoints import failpoint

#: Registry name of the hydration loader used for DSR shards.
DSR_SHARD_LOADER = "dsr.load_shard"
LOCAL_STEP_TASK = "dsr.local_step"
REMOTE_STEP_TASK = "dsr.remote_step"

#: One product-form answer group: every source reaches every target.
Group = Tuple[List[int], List[int]]


class QueryShard(Protocol):
    """What one slave of one epoch must answer for the two query steps.

    Every mask and row is addressed in :attr:`vertex_rank`, which an
    implementation fixes for its whole lifetime — so one step can never mix
    bit positions of two numberings.
    """

    rank: int
    epoch: int
    vertex_rank: VertexRank

    def handle_mask_of(self, pid: int) -> int:
        """Remote partition ``pid``'s forward handles as one packed row."""

    def handle_gather_of(self, pid: int) -> BitGather:
        """Rows over :attr:`vertex_rank` → remote partition ``pid``'s wire positions."""

    def expand_handle(self, handle: int) -> Tuple[int, ...]:
        """A received handle of this partition → concrete member vertices."""

    def rows(self, sources: Iterable[int], mask: int) -> Dict[int, int]:
        """Packed ``localSetReachability``: ``{source: reached row & mask}``."""


@dataclass
class WorkerShardBlob:
    """Picklable, self-contained hydration payload for one ``(rank, epoch)``
    shard: everything the worker needs travels inside the blob, one transfer
    per rank per epoch, on every sharded executor.
    """

    rank: int
    epoch: int
    dag_csr_bytes: bytes
    component_of: Dict[int, int]
    remote_forward_handles: Dict[int, Tuple[int, ...]]
    expand_members: Dict[int, Tuple[int, ...]]
    #: The epoch's vertex-rank id order of this partition's compound graph —
    #: the numbering every packed mask/row in step payloads is addressed in.
    #: Shipped verbatim so worker and parent can never disagree on a rank.
    vertex_ids: Tuple[int, ...]


@dataclass
class WorkerShard:
    """The materialised shard a worker queries against (immutable)."""

    rank: int
    epoch: int
    dag_csr: CSRGraph
    component_of: Dict[int, int]
    remote_forward_handles: Dict[int, Tuple[int, ...]]
    expand_members: Dict[int, Tuple[int, ...]]
    #: Packed-pipeline structures, derived once at hydration.
    vertex_rank: Optional[VertexRank] = None
    #: Component rows → member rows over ``vertex_rank``.
    expansion: Optional[BitGather] = None
    _handle_gathers: Dict[int, BitGather] = field(default_factory=dict)
    _handle_masks: Dict[int, int] = field(default_factory=dict)

    def handle_mask_of(self, pid: int) -> int:
        """Remote partition ``pid``'s forward handles as one packed row."""
        mask = self._handle_masks.get(pid)
        if mask is None:
            mask = self.vertex_rank.pack(self.remote_forward_handles.get(pid, ()))
            self._handle_masks[pid] = mask
        return mask

    def handle_gather_of(self, pid: int) -> BitGather:
        """Rows over :attr:`vertex_rank` → remote partition ``pid``'s wire positions.

        Derived through the shared
        :func:`repro.reachability.packed.handle_gather`, so positions agree
        with every other slave's
        :meth:`~repro.core.summary.PartitionSummary.forward_handle_order`.
        """
        gather = self._handle_gathers.get(pid)
        if gather is None:
            gather = handle_gather(self.remote_forward_handles.get(pid, ()), self.vertex_rank)
            self._handle_gathers[pid] = gather
        return gather

    def expand_handle(self, handle: int) -> Tuple[int, ...]:
        """Class handle → representative member; member handle → itself."""
        return self.expand_members.get(handle, (handle,))

    def rows(self, sources: Iterable[int], mask: int) -> Dict[int, int]:
        """Packed ``{source: row}`` from the kernel over the shard's CSR.

        Ids unknown to the shard (e.g. a vertex inserted after this epoch)
        get a zero row.
        """
        return condensation_rows(self.dag_csr, self.component_of, self.expansion, sources, mask)


class EpochShard:
    """The in-process shard: a view over ``(EpochState, rank)``."""

    __slots__ = ("rank", "epoch", "vertex_rank", "_compound", "_summary")

    def __init__(self, state, rank: int) -> None:
        self.rank = rank
        self.epoch = state.epoch
        self._compound = state.compound_graphs[rank]
        self._summary = state.summaries[rank]
        self.vertex_rank = self._compound.vertex_rank

    def handle_mask_of(self, pid: int) -> int:
        return self._compound.handle_mask_of(pid)

    def handle_gather_of(self, pid: int) -> BitGather:
        return self._compound.handle_gather_of(pid)

    def expand_handle(self, handle: int) -> Tuple[int, ...]:
        return self._summary.expand_handle(handle)

    def rows(self, sources: Iterable[int], mask: int) -> Dict[int, int]:
        # Looked up on the compound graph per call, never cached here:
        # per-instance wrappers (tracing hooks) must see every kernel call.
        return self._compound.local_set_reachability_rows(sources, mask)


def build_shard_blob(rank: int, epoch: int, compound, summary) -> WorkerShardBlob:
    """Derive the shard blob for one partition from its epoch state.

    ``compound`` is the partition's condensed :class:`~repro.core.
    compound_graph.CompoundGraph` and ``summary`` its
    :class:`~repro.core.summary.PartitionSummary`.  The condensation is
    already a CSR snapshot; it ships as its
    :meth:`~repro.graph.csr.CSRGraph.to_bytes` image.
    """
    reach = compound.reachability
    return WorkerShardBlob(
        rank=rank,
        epoch=epoch,
        dag_csr_bytes=reach.dag.to_bytes(),
        component_of=dict(reach.vertex_to_component),
        remote_forward_handles={
            pid: tuple(sorted(handles))
            for pid, handles in compound.remote_forward_handles.items()
        },
        # The single expansion contract, shared with the in-process path.
        expand_members=dict(summary.expand_table()),
        vertex_ids=reach.vertex_rank.ids,
    )


@register_shard_loader(DSR_SHARD_LOADER)
def load_shard(blob: WorkerShardBlob) -> WorkerShard:
    """Hydrate a blob into the worker's queryable shard.

    The CSR re-inflates from its bytes, and the packed-pipeline structures —
    the vertex rank and the component → member transform — are derived
    here, once per epoch; every query of the epoch reuses them.  The
    ``shard.load`` failpoint fires first, inside whichever process hydrates.
    """
    failpoint("shard.load", rank=blob.rank, epoch=blob.epoch)
    dag_csr = CSRGraph.from_bytes(blob.dag_csr_bytes)
    vertex_rank = VertexRank(blob.vertex_ids)
    # The DAG's ids are its dense indices, so a component id is its rank.
    expansion = build_expansion(
        [blob.component_of[vertex] for vertex in blob.vertex_ids], dag_csr.num_vertices
    )
    return WorkerShard(
        rank=blob.rank,
        epoch=blob.epoch,
        dag_csr=dag_csr,
        component_of=blob.component_of,
        remote_forward_handles=blob.remote_forward_handles,
        expand_members=blob.expand_members,
        vertex_rank=vertex_rank,
        expansion=expansion,
    )


def _record_payload(step: str, payload: Dict[str, Any]) -> None:
    """Account the packed target bytes one step request carries (what
    crosses the IPC boundary on a sharded executor).  Recorded in whichever
    process runs the task, so worker totals ship back via the executor's
    delta piggybacking."""
    registry = global_registry()
    if registry.enabled:
        registry.inc(
            "dsr_shard_payload_bytes_total", len(payload["targets_bits"]), step=step
        )


def _unpacked_groups(
    vrank: VertexRank, by_row: Dict[int, List[int]], mask: Optional[int]
) -> List[Group]:
    """``(sources, target ids)`` per distinct row (``& mask``), one batched decode."""
    hits, hit_sources = [], []
    for row, row_sources in by_row.items():
        hit = row if mask is None else row & mask
        if hit:
            hits.append(hit)
            hit_sources.append(row_sources)
    return list(zip(hit_sources, vrank.unpack_rows(hits)))


# ---------------------------------------------------------------------- #
# the two per-slave query steps (Algorithms 1 and 2)
# ---------------------------------------------------------------------- #
@register_shard_task(LOCAL_STEP_TASK)
def local_step(
    shard: QueryShard, payload: Dict[str, Any]
) -> Tuple[List[Group], Dict[int, Dict[bytes, List[int]]]]:
    """Step 1 at this slave: local answer groups + handles to ship per partition.

    Payload: ``{"sources": [...], "interior_pids": [...], "targets_bits":
    packed bytes over the shard's vertex rank}``.  The targets already
    bundle local targets with remote *boundary* targets (resolvable here
    without communication); ``interior_pids`` names the remote partitions
    whose interior targets need handle shipping.

    Sources are grouped by their reached row (one SCC → one row), so each
    distinct row is intersected with the target mask and decoded exactly
    once, all rows in one batch.  The answer stays in product form —
    ``(sources, targets)`` groups the master materialises once — and the
    handles bound for partition ``pid`` are re-packed into ``pid``'s
    canonical handle positions, one batch per partition, and keyed by their
    byte form, ``outgoing[pid] = {packed handle bytes: [sources]}``, with
    all sources sharing a row appended to one entry.
    """
    _record_payload("local", payload)
    sources = payload["sources"]
    target_mask = row_from_bytes(payload["targets_bits"])
    pid_masks = [(pid, shard.handle_mask_of(pid)) for pid in payload["interior_pids"]]
    all_handle_mask = 0
    for _, pid_mask in pid_masks:
        all_handle_mask |= pid_mask

    rows = shard.rows(sources, target_mask | all_handle_mask)
    by_row: Dict[int, List[int]] = {}
    for source in sources:
        row = rows.get(source, 0)
        if row:
            by_row.setdefault(row, []).append(source)

    groups = _unpacked_groups(shard.vertex_rank, by_row, target_mask)
    outgoing: Dict[int, Dict[bytes, List[int]]] = {}
    shipping = [(row, row_sources) for row, row_sources in by_row.items() if row & all_handle_mask]
    for pid, pid_mask in pid_masks:
        hits, hit_sources = [], []
        for row, row_sources in shipping:
            hit = row & pid_mask
            if hit:
                hits.append(hit)
                hit_sources.append(row_sources)
        if not hits:
            continue
        per_pid: Dict[bytes, List[int]] = outgoing.setdefault(pid, {})
        for handle_row, row_sources in zip(shard.handle_gather_of(pid).gather(hits), hit_sources):
            per_pid.setdefault(row_to_bytes(handle_row), []).extend(row_sources)
    # These totals are a pure function of the inputs, so a serial run and a
    # sharded process run (whose workers ship deltas back) count identically
    # — the invariant the delta-shipping exactness tests pin down.
    registry = global_registry()
    if registry.enabled:
        registry.inc("dsr_step_sources_total", len(sources), step="local")
        registry.inc("dsr_step_groups_total", len(groups), step="local")
        registry.inc(
            "dsr_step_handle_bytes_total",
            sum(len(row_bytes) for per_pid in outgoing.values() for row_bytes in per_pid),
            step="local",
        )
    return groups, outgoing


@register_shard_task(REMOTE_STEP_TASK)
def remote_step(shard: QueryShard, payload: Dict[str, Any]) -> List[Group]:
    """Step 3 at this slave: expand received handles, finish locally.

    Payload: ``{"sources_by_handle": {handle: [sources]}, "targets_bits":
    the remaining interior targets as packed bytes over the shard's vertex
    rank}`` — the parent has already drained and inverted this slave's
    inbox.

    Each source's rows (across all handles it reached) are ORed into one
    row, then sources are regrouped by that row — overlapping handle
    answers materialise once, and each distinct row decodes once.  Returns
    product-form ``(sources, targets)`` groups; the master materialises
    the tuples.
    """
    _record_payload("remote", payload)
    sources_by_handle: Dict[int, List[int]] = payload["sources_by_handle"]
    members_by_handle = {
        handle: shard.expand_handle(handle) for handle in sources_by_handle
    }
    rows = shard.rows(
        {member for members in members_by_handle.values() for member in members},
        row_from_bytes(payload["targets_bits"]),
    )

    num_pairs = 0
    row_by_source: Dict[int, int] = {}
    for handle, handle_sources in sources_by_handle.items():
        reached_row = 0
        for member in members_by_handle[handle]:
            reached_row |= rows.get(member, 0)
        if not reached_row:
            continue
        for source in handle_sources:
            num_pairs += 1
            row_by_source[source] = row_by_source.get(source, 0) | reached_row
    by_row: Dict[int, List[int]] = {}
    for source, row in row_by_source.items():
        by_row.setdefault(row, []).append(source)
    registry = global_registry()
    if registry.enabled:
        registry.inc("dsr_step_sources_total", num_pairs, step="remote")
        registry.inc("dsr_step_groups_total", len(by_row), step="remote")
    return _unpacked_groups(shard.vertex_rank, by_row, None)


__all__ = [
    "DSR_SHARD_LOADER",
    "LOCAL_STEP_TASK",
    "REMOTE_STEP_TASK",
    "EpochShard",
    "Group",
    "QueryShard",
    "WorkerShard",
    "WorkerShardBlob",
    "build_shard_blob",
    "load_shard",
    "local_step",
    "remote_step",
]
