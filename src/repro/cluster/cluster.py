"""The simulated master/slave cluster.

A :class:`SimulatedCluster` owns ``k`` worker slots (one per graph partition)
plus a master, a shared :class:`~repro.cluster.network.Network`, and a simple
parallel-time model: every phase measures the wall-clock time each worker
spent and accumulates the *maximum* across workers — the time the phase
would have taken had the workers truly run in parallel on separate machines,
which is how the paper reports query times.

Closure phases (:meth:`SimulatedCluster.run_phase`: index build, maintenance
assembly) run each worker's closure on the calling thread and time it here.
Shard phases (:meth:`SimulatedCluster.run_shard_phase`: queries) go to a
pluggable :class:`~repro.cluster.executors.ExecutorBackend` (``executor=`` —
``serial``, ``processes`` or ``tcp``; see :mod:`repro.cluster.executors`).
Besides the simulated-parallel model, every phase also records its **real**
wall-clock (:attr:`PhaseTiming.real_seconds`), so executor backends can be
compared honestly: simulated time answers "what would a real cluster do",
real time answers "what does this machine do".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.cluster.executors import ExecutorBackend, make_executor
from repro.cluster.network import Network, NetworkStats


@dataclass
class PhaseTiming:
    """Timing record for one named phase."""

    name: str
    per_worker_seconds: Dict[int, float] = field(default_factory=dict)
    #: Real elapsed wall-clock of the whole phase, dispatch included.
    real_seconds: float = 0.0

    @property
    def parallel_seconds(self) -> float:
        """Simulated parallel wall-clock: the slowest worker."""
        return max(self.per_worker_seconds.values(), default=0.0)

    @property
    def total_seconds(self) -> float:
        """Total CPU work across all workers."""
        return sum(self.per_worker_seconds.values())


@dataclass
class ClusterStats:
    """Aggregated execution statistics for a query or a build.

    ``phases`` holds the itemised records of work charged directly to this
    stats object (an index build, one query).  Work *absorbed* from other
    stats objects — every served query folds its private record into the
    cluster's cumulative stats — is accumulated into the ``absorbed_*``
    aggregates instead of extending the list, so a long-lived service's
    cumulative record stays O(1) in memory no matter how many queries it
    serves (per-query phase detail lives in each ``QueryResult``).
    """

    phases: List[PhaseTiming] = field(default_factory=list)
    absorbed_parallel_seconds: float = 0.0
    absorbed_total_seconds: float = 0.0
    absorbed_real_seconds: float = 0.0
    absorbed_phases: int = 0

    @property
    def parallel_seconds(self) -> float:
        return (
            sum(phase.parallel_seconds for phase in self.phases)
            + self.absorbed_parallel_seconds
        )

    @property
    def total_seconds(self) -> float:
        return (
            sum(phase.total_seconds for phase in self.phases)
            + self.absorbed_total_seconds
        )

    @property
    def real_seconds(self) -> float:
        """Real elapsed wall-clock summed across phases."""
        return (
            sum(phase.real_seconds for phase in self.phases)
            + self.absorbed_real_seconds
        )

    def absorb(self, other: "ClusterStats") -> None:
        """Fold another record's totals into this one (no list growth)."""
        self.absorbed_parallel_seconds += other.parallel_seconds
        self.absorbed_total_seconds += other.total_seconds
        self.absorbed_real_seconds += other.real_seconds
        self.absorbed_phases += len(other.phases) + other.absorbed_phases

    def as_dict(self) -> Dict[str, Any]:
        return {
            "parallel_seconds": self.parallel_seconds,
            "total_seconds": self.total_seconds,
            "real_seconds": self.real_seconds,
            "absorbed_phases": self.absorbed_phases,
            "phases": {
                phase.name: round(phase.parallel_seconds, 6) for phase in self.phases
            },
        }


class SimulatedCluster:
    """``k`` workers + master with explicit phases and message accounting."""

    MASTER_RANK = -1

    def __init__(
        self,
        num_workers: int,
        executor: Union[str, ExecutorBackend] = "serial",
    ) -> None:
        if num_workers < 1:
            raise ValueError("a cluster needs at least one worker")
        self.num_workers = num_workers
        if isinstance(executor, str):
            executor = make_executor(executor)
        executor.start(num_workers)
        self.executor: ExecutorBackend = executor
        self.network = Network()
        self.stats = ClusterStats()

    # ------------------------------------------------------------------ #
    # phase execution
    # ------------------------------------------------------------------ #
    def run_phase(
        self,
        name: str,
        worker_fn: Callable[[int], Any],
        workers: Optional[List[int]] = None,
        stats: Optional[ClusterStats] = None,
    ) -> Dict[int, Any]:
        """Run ``worker_fn(rank)`` on every worker (or the given subset).

        Each closure runs on the calling thread, one worker after another.
        Returns ``{rank: result}`` and records per-worker timings under the
        phase ``name``.  ``stats`` selects where the timing record goes:
        callers that may run concurrently (queries) pass their own private
        :class:`ClusterStats`; by default the record lands in the cluster's
        cumulative :attr:`stats`.
        """
        ranks = list(range(self.num_workers)) if workers is None else list(workers)
        timing = PhaseTiming(name=name)
        results: Dict[int, Any] = {}
        phase_start = time.perf_counter()
        for rank in ranks:
            start = time.perf_counter()
            results[rank] = worker_fn(rank)
            timing.per_worker_seconds[rank] = time.perf_counter() - start
        timing.real_seconds = time.perf_counter() - phase_start
        (stats if stats is not None else self.stats).phases.append(timing)
        return results

    def run_shard_phase(
        self,
        name: str,
        task: str,
        payloads: Dict[int, Any],
        epoch: Optional[int] = None,
        stats: Optional[ClusterStats] = None,
    ) -> Dict[int, Any]:
        """Run a registered shard task against the hydrated epoch shards.

        ``payloads`` maps rank → task payload; only listed ranks execute.
        Raises :class:`~repro.cluster.executors.StaleEpochError` when a
        worker no longer holds ``epoch`` (callers re-read the current epoch
        and retry).
        """
        timing = PhaseTiming(name=name)
        start = time.perf_counter()
        raw = self.executor.run_shard_phase(task, epoch, payloads)
        timing.real_seconds = time.perf_counter() - start
        results: Dict[int, Any] = {}
        for rank, (result, seconds) in raw.items():
            results[rank] = result
            timing.per_worker_seconds[rank] = seconds
        (stats if stats is not None else self.stats).phases.append(timing)
        return results

    def hydrate_shards(
        self,
        epoch: int,
        blobs: Dict[int, Any],
        loader: str,
        retire_below: Optional[int] = None,
    ) -> None:
        """Install per-rank shard blobs for ``epoch`` on the workers."""
        self.executor.hydrate_all(epoch, blobs, loader, retire_below=retire_below)

    @property
    def wants_sharded_queries(self) -> bool:
        """True when queries should run through hydrated shard tasks."""
        return self.executor.wants_sharded_queries

    def run_master(self, name: str, master_fn: Callable[[], Any]) -> Any:
        """Run a master-side computation as its own timed phase."""
        timing = PhaseTiming(name=name)
        start = time.perf_counter()
        try:
            return master_fn()
        finally:
            elapsed = time.perf_counter() - start
            timing.per_worker_seconds[self.MASTER_RANK] = elapsed
            timing.real_seconds = elapsed
            self.stats.phases.append(timing)

    # ------------------------------------------------------------------ #
    # communication helpers
    # ------------------------------------------------------------------ #
    def send(self, source: int, destination: int, payload: Any, tag: str = "data") -> None:
        self.network.send(source, destination, payload, tag=tag)

    def deliver(self, destination: int):
        return self.network.deliver(destination)

    def complete_round(self) -> None:
        self.network.complete_round()

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def reset_stats(self) -> None:
        """Clear timing and network statistics before a new measured run."""
        self.stats = ClusterStats()
        self.network.reset_stats()

    def absorb(self, stats: ClusterStats, network_stats: NetworkStats) -> None:
        """Fold a private per-query stats record into the cumulative totals.

        Queries execute against their own :class:`ClusterStats` and
        :class:`~repro.cluster.network.Network` so concurrent queries never
        interleave phase or message records; their exact counters are merged
        back here (the network counters under the network's lock, the
        timings as O(1) aggregates so the cumulative record never grows).
        """
        self.stats.absorb(stats)
        self.network.absorb(network_stats)

    def snapshot(self) -> Dict[str, Any]:
        """Combined execution + communication statistics."""
        combined = self.stats.as_dict()
        combined.update(self.network.stats.as_dict())
        return combined

    def close(self) -> None:
        """Shut down the executor backend (worker processes, thread pools)."""
        self.executor.close()
