"""One-round distributed evaluation of DSR queries (Algorithms 1 and 2).

The executor follows the paper's three-step protocol:

* **Step 1 (local, all slaves in parallel).**  Each slave ``i`` evaluates, over
  its compound graph:

  - ``S_i ⇝ T_i`` — source/target pairs that are both local (Theorem 1);
  - ``S_i ⇝ (T ∩ boundary vertices of remote partitions)`` — remote *boundary*
    targets are real vertices of every compound graph, so these pairs are
    resolved without any communication as well;
  - ``S_i ⇝ F_i`` — reachability to the forward handles (in-virtual vertices
    plus overlap boundaries) of every remote partition that still has
    unresolved targets.

* **Step 2 (single communication round).**  For each remote partition ``j``
  the reached handles are buffered per source and shipped from slave ``i`` to
  slave ``j`` in one message (Theorem 2: one round suffices regardless of the
  graph's diameter).

* **Step 3 (local, all slaves in parallel).**  Slave ``j`` expands every
  received handle (class → representative member, overlap handle → itself) and
  evaluates reachability from the expanded members to its remaining local
  targets, emitting ``(s, t)`` pairs.

Single-pair queries (Algorithm 1) are the special case ``|S| = |T| = 1``.

Concurrency and epochs
----------------------
A query captures the index's published :class:`~repro.core.index.EpochState`
**once** at entry and evaluates all three steps against it, so a maintenance
flush that swaps in epoch ``N+1`` mid-query cannot tear the answer: every
query is consistent with exactly one epoch (reported as
:attr:`QueryResult.epoch`).  Each query also runs over its own private
:class:`~repro.cluster.network.Network` and timing record — concurrent
queries never interleave inboxes or phase timings — and folds its exact
counters into the cluster's cumulative statistics when done.

One query path
--------------
The per-slave steps are not defined here: steps 1 and 3 are the two shard
tasks of :mod:`repro.core.shard_exec`, written once over a small shard
protocol.  This module builds their packed payloads — targets as one row
over the epoch's stable vertex-rank numbering
(:mod:`repro.reachability.packed`), handles as ``{packed handle bytes:
[sources]}`` messages — identically for every executor, and only the
dispatch differs: a sharded executor (``processes``/``tcp``) runs the tasks
inside the workers hydrated with this epoch's CSR shards, every other
configuration runs the same task functions against an in-process view of
the captured epoch.  Answers stay in product form until the master
materialises the ``(s, t)`` tuples once.

If the workers have retired the captured epoch (the query raced two
consecutive flushes), the step raises ``StaleEpochError`` and the query
transparently re-captures the newest epoch and retries, falling back to the
in-process view — which never depends on hydrated workers — as a last
resort.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.cluster.cluster import ClusterStats, SimulatedCluster
from repro.cluster.executors import StaleEpochError
from repro.cluster.network import Network
from repro.core.index import DSRIndex, EpochState
from repro.core.shard_exec import EpochShard, Group, local_step, remote_step
from repro.obs.runtime import global_registry
from repro.obs.trace import QueryTrace
from repro.reachability.packed import invert_rows, row_from_bytes, row_to_bytes
from repro.resilience.deadline import check_deadline

#: How many times a sharded query re-captures the epoch before falling back.
_MAX_STALE_RETRIES = 2


@dataclass
class QueryResult:
    """Result of a DSR query: the reachable pairs plus execution statistics."""

    pairs: Set[Tuple[int, int]]
    parallel_seconds: float = 0.0
    total_seconds: float = 0.0
    messages_sent: int = 0
    bytes_sent: int = 0
    rounds: int = 0
    per_phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Real elapsed wall-clock of the distributed phases (dispatch included).
    real_seconds: float = 0.0
    #: The index epoch this answer is consistent with (-1 when not applicable).
    epoch: int = -1
    #: Structured span trace (only when the query asked for one; excluded
    #: from :meth:`as_dict` — the wire layer serialises it separately).
    trace: Optional[QueryTrace] = None

    @property
    def num_pairs(self) -> int:
        return len(self.pairs)

    def swapped(self) -> "QueryResult":
        """This result with every ``(s, t)`` pair flipped to ``(t, s)``.

        Used to translate the answer of a backward query (run over the
        reversed index as ``T ⇝ S``) back into the caller's orientation.
        Implemented with :func:`dataclasses.replace` so every statistics
        field — including ones added later, and subclass extensions — is
        carried over unchanged.
        """
        return dataclasses.replace(
            self, pairs={(target, source) for source, target in self.pairs}
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "num_pairs": self.num_pairs,
            "parallel_seconds": self.parallel_seconds,
            "total_seconds": self.total_seconds,
            "real_seconds": self.real_seconds,
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "rounds": self.rounds,
            "epoch": self.epoch,
        }


class DistributedQueryExecutor:
    """Evaluates DSR queries over a built :class:`~repro.core.index.DSRIndex`."""

    def __init__(self, index: DSRIndex, cluster: Optional[SimulatedCluster] = None) -> None:
        if not index.is_built:
            raise RuntimeError("the DSR index must be built before querying")
        self.index = index
        self.cluster = cluster or index.cluster

    # ------------------------------------------------------------------ #
    # public entry points
    # ------------------------------------------------------------------ #
    def query(
        self,
        sources: Iterable[int],
        targets: Iterable[int],
        trace: Optional[QueryTrace] = None,
    ) -> QueryResult:
        """Evaluate ``S ⇝ T`` and return every reachable ``(s, t)`` pair.

        ``trace`` — when the caller passes a :class:`~repro.obs.trace.
        QueryTrace`, the three protocol steps, per-partition shard-task
        wall-clock, payload bytes and stale-epoch retries are recorded as
        spans, and the trace is attached to :attr:`QueryResult.trace`.
        """
        source_set = set(sources)
        target_set = set(targets)
        self._validate(source_set | target_set)

        use_shards = self.index.uses_sharded_queries
        attempts = _MAX_STALE_RETRIES if use_shards else 0
        while True:
            # Capture one consistent epoch; everything below reads only it.
            state = self.index.current_state()
            net = Network()
            stats = ClusterStats()
            try:
                pairs = self._execute(
                    state,
                    source_set,
                    target_set,
                    net,
                    stats,
                    sharded=use_shards,
                    trace=trace,
                )
                break
            except StaleEpochError:
                # The captured epoch was retired under this query (it raced
                # two consecutive flushes).  Re-capture and retry; after the
                # retry budget, run against the in-process view of the
                # parent's state, which is always available.
                registry = global_registry()
                if registry.enabled:
                    registry.inc("dsr_query_stale_retries_total")
                if trace is not None:
                    trace.event(
                        "stale_epoch_retry",
                        epoch=state.epoch,
                        fallback_in_process=attempts <= 0,
                    )
                if attempts <= 0:
                    use_shards = False
                else:
                    attempts -= 1
                # A deadlined query stops retrying the moment its budget is
                # gone — the retry would recompute an answer nobody awaits.
                check_deadline("stale_retry")

        # Fold the exact per-query counters into the cluster totals.
        self.cluster.absorb(stats, net.stats)
        snapshot = net.stats
        registry = global_registry()
        if registry.enabled:
            registry.inc("dsr_queries_total")
            registry.inc("dsr_query_pairs_total", len(pairs))
            registry.inc("dsr_query_messages_total", snapshot.messages_sent)
            registry.inc("dsr_query_bytes_total", snapshot.bytes_sent)
            registry.observe("dsr_query_seconds", stats.real_seconds)
        if trace is not None:
            trace.attrs["epoch"] = state.epoch
            trace.attrs["sharded"] = use_shards
        return QueryResult(
            pairs=pairs,
            parallel_seconds=stats.parallel_seconds,
            total_seconds=stats.total_seconds,
            real_seconds=stats.real_seconds,
            messages_sent=snapshot.messages_sent,
            bytes_sent=snapshot.bytes_sent,
            rounds=snapshot.rounds,
            per_phase_seconds={
                phase.name: round(phase.parallel_seconds, 6) for phase in stats.phases
            },
            epoch=state.epoch,
            trace=trace,
        )

    def reachable(self, source: int, target: int) -> bool:
        """Single-pair reachability (Algorithm 1)."""
        result = self.query([source], [target])
        return (source, target) in result.pairs

    # ------------------------------------------------------------------ #
    # the three-step protocol over one captured epoch
    # ------------------------------------------------------------------ #
    def _split(
        self, state: EpochState, source_set: Set[int], target_set: Set[int]
    ) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]], Dict[int, Set[int]], Dict[int, Set[int]]]:
        """Partition the query and classify targets as boundary/interior.

        Routing reads the captured epoch's ``assignment`` snapshot, never the
        live partitioning: a vertex deletion racing a lock-free query cannot
        crash the split — the query keeps answering from its epoch, where
        the vertex still exists.  Vertices unknown to the epoch (not yet
        indexed) contribute no pairs, matching the worker shards.
        """
        assignment = state.assignment
        sources_of: Dict[int, Set[int]] = {}
        targets_of: Dict[int, Set[int]] = {}
        for source in source_set:
            pid = assignment.get(source)
            if pid is not None:
                sources_of.setdefault(pid, set()).add(source)
        for target in target_set:
            pid = assignment.get(target)
            if pid is not None:
                targets_of.setdefault(pid, set()).add(target)
        for pid in set(sources_of) | set(targets_of):
            sources_of.setdefault(pid, set())
            targets_of.setdefault(pid, set())

        # With the equivalence optimisation, targets that are boundary vertices
        # of their home partition are real vertices of every compound graph and
        # are resolved directly at the source's slave; only interior targets
        # need the handle exchange.  Without the optimisation the messages
        # carry real boundary members, so every remote target is resolved at
        # its home slave (the paper's original Algorithm 2).  Boundary sets
        # are read from the captured epoch, not the live cut.
        boundary_targets_of: Dict[int, Set[int]] = {}
        interior_targets_of: Dict[int, Set[int]] = {}
        for pid, partition_targets in targets_of.items():
            if self.index.use_equivalence:
                boundary = state.boundary_sets.get(pid, set())
                boundary_targets_of[pid] = partition_targets & boundary
                interior_targets_of[pid] = partition_targets - boundary
            else:
                boundary_targets_of[pid] = set()
                interior_targets_of[pid] = set(partition_targets)
        return sources_of, targets_of, boundary_targets_of, interior_targets_of

    def _execute(
        self,
        state: EpochState,
        source_set: Set[int],
        target_set: Set[int],
        net: Network,
        stats: ClusterStats,
        sharded: bool,
        trace: Optional[QueryTrace] = None,
    ) -> Set[Tuple[int, int]]:
        sources_of, targets_of, boundary_targets_of, interior_targets_of = self._split(
            state, source_set, target_set
        )
        pairs: Set[Tuple[int, int]] = set()
        phases_before = len(stats.phases)

        def dispatch(
            name: str, step: Callable[[Any, Dict[str, Any]], Any], payloads: Dict[int, Any]
        ) -> Dict[int, Any]:
            """Run one per-slave step on every rank that has a payload."""
            if not payloads:
                return {}
            if sharded:
                return self.cluster.run_shard_phase(
                    name, step.task_name, payloads, epoch=state.epoch, stats=stats
                )
            return self.cluster.run_phase(
                name,
                lambda rank: step(EpochShard(state, rank), payloads[rank]),
                workers=list(payloads),
                stats=stats,
            )

        def packed_targets(rank: int, targets: Set[int]) -> bytes:
            # Targets travel as one row over the slave's epoch vertex rank
            # (identical on both sides by construction — the blob ships the
            # same id order).
            return row_to_bytes(state.vertex_rank(rank).pack(targets))

        # ----- Step 1: local evaluation at every slave --------------------- #
        payloads: Dict[int, Dict[str, Any]] = {}
        for rank, local_sources in sources_of.items():
            if not local_sources:
                continue
            # Remote boundary targets are resolvable locally; remote interior
            # targets need handles shipped to their home slave.
            step1_targets = set(targets_of.get(rank, ()))
            for pid, boundary_targets in boundary_targets_of.items():
                if pid != rank:
                    step1_targets |= boundary_targets
            payloads[rank] = {
                "sources": sorted(local_sources),
                "interior_pids": sorted(
                    pid
                    for pid, interior in interior_targets_of.items()
                    if pid != rank and interior
                ),
                "targets_bits": packed_targets(rank, step1_targets),
            }
        step1_results = dispatch("local", local_step, payloads)
        if trace is not None:
            self._trace_step(
                trace, stats, phases_before, "step1", payloads, sharded=sharded
            )
            phases_before = len(stats.phases)

        self._materialise(
            pairs, chain.from_iterable(groups for groups, _ in step1_results.values()), trace
        )
        for rank, (_, outgoing) in step1_results.items():
            for destination, payload in outgoing.items():
                net.send(rank, destination, payload, tag="handles")

        # The one mid-run stop of a deadlined query: a budget that step 1
        # used up is not spent on the bridge and a step-3 fan-out nobody is
        # waiting for.
        check_deadline("step3")

        # ----- Step 2: the single round of message exchange ---------------- #
        # The bridge: the round completes, each home slave's inbox is
        # delivered and inverted to handle → sources, and its step-3 payload
        # is assembled.
        bridge_start = time.perf_counter()
        net.complete_round()
        payloads3: Dict[int, Dict[str, Any]] = {}
        for rank in range(self.index.num_partitions):
            interior = interior_targets_of.get(rank, set())
            messages = net.deliver(rank)
            if not interior or not messages:
                continue
            sources_by_handle = self._invert_handle_messages(
                messages, state.summaries[rank].forward_handle_order()
            )
            if not sources_by_handle:
                continue
            payloads3[rank] = {
                "sources_by_handle": sources_by_handle,
                "targets_bits": packed_targets(rank, interior),
            }
        if trace is not None:
            trace.add(
                "step2_bridge",
                time.perf_counter() - bridge_start,
                messages=net.stats.messages_sent,
                payload_bytes=net.stats.per_tag_bytes.get("handles", 0),
            )

        # ----- Step 3: resolve received handles at the target slaves ------- #
        step3_results = dispatch("remote", remote_step, payloads3)
        if trace is not None:
            self._trace_step(
                trace, stats, phases_before, "step3", payloads3, sharded=sharded
            )
        self._materialise(pairs, chain.from_iterable(step3_results.values()), trace)
        return pairs

    @staticmethod
    def _materialise(
        pairs: Set[Tuple[int, int]], groups: Iterable[Group], trace: Optional[QueryTrace]
    ) -> None:
        """Product-form groups become ``(s, t)`` tuples exactly once, here.

        Traced as a ``materialise`` span whose ``pairs`` attribute counts
        the pairs this call added.
        """
        if trace is None:
            for group_sources, group_targets in groups:
                pairs.update(product(group_sources, group_targets))
            return
        before = len(pairs)
        with trace.span("materialise") as span:
            for group_sources, group_targets in groups:
                pairs.update(product(group_sources, group_targets))
            span.attrs["pairs"] = len(pairs) - before

    @staticmethod
    def _trace_step(
        trace: QueryTrace,
        stats: ClusterStats,
        phases_before: int,
        name: str,
        payloads: Dict[int, Dict[str, Any]],
        **attrs: object,
    ) -> None:
        """Record one protocol step plus its per-partition shard spans.

        The cluster appended a :class:`~repro.cluster.cluster.PhaseTiming`
        per executed phase; its ``per_worker_seconds`` are the workers'
        *self-measured* compute seconds (IPC excluded), which become one
        ``<step>.shard`` span per partition.
        """
        new_phases = stats.phases[phases_before:]
        trace.add(
            name,
            sum(phase.real_seconds for phase in new_phases),
            partitions=len(payloads),
            payload_bytes=sum(
                len(payload["targets_bits"]) for payload in payloads.values()
            ),
            **attrs,
        )
        for phase in new_phases:
            for rank, seconds in sorted(phase.per_worker_seconds.items()):
                trace.add(f"{name}.shard", seconds, partition=rank)

    @staticmethod
    def _invert_handle_messages(
        messages, handle_order: Tuple[int, ...]
    ) -> Dict[int, List[int]]:
        """Invert packed ``{handle bytes: [sources]}`` payloads to handle → sources.

        This is the inverted index ``I_i(Υ, L)`` of Algorithm 2, Step 2.
        ``handle_order`` is the receiving partition's canonical handle
        numbering; bit ``p`` of a payload row addresses ``handle_order[p]``.
        The payloads arrive pre-grouped by row (sources of one SCC ship one
        byte-identical row), and every row of the inbox is inverted in one
        batch (:func:`repro.reachability.packed.invert_rows`): handles come
        in position order, each with its sources in inbox order.  The
        source lists are duplicate-free because every source lives in
        exactly one partition and ships exactly one row per destination.
        """
        rows: List[int] = []
        row_sources: List[List[int]] = []
        for message in messages:
            for handle_bytes, sources in message.payload.items():
                rows.append(row_from_bytes(handle_bytes))
                row_sources.append(sources)
        return invert_rows(rows, row_sources, handle_order)

    # ------------------------------------------------------------------ #
    def _validate(self, vertices: Set[int]) -> None:
        graph = self.index.partitioning.graph
        missing = [vertex for vertex in vertices if not graph.has_vertex(vertex)]
        if missing:
            raise ValueError(
                f"query mentions {len(missing)} unknown vertices (e.g. {missing[:5]})"
            )
