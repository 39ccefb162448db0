"""What the spine measures: workloads, phase sizes and metric names.

Phase lengths are operation counts, never durations, so the program-side
counters of a run repeat exactly for a given ``--seed`` and ``--seconds``.
The counts below were probed on the 2-core reference box to fill about
``BASE_SECONDS`` of measured wall time; ``--seconds`` scales them linearly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

#: Measured seconds the base counts were sized for (= BENCHMARK.json run_seconds).
BASE_SECONDS = 16

#: The graphs are the benchmark's datasets: generated once, from this seed,
#: whatever ``--seed`` is.  ``--seed`` draws the request stream and the update
#: script.  A graph per seed moves peak RSS by +-8 % and the median latency by
#: +-9 % through partition shapes alone, which would bury a 10 % regression
#: under input variation when runs with different seeds are compared.
GRAPH_SEED = 7

#: Updates sent before the fresh read of every write cycle
#: (delete-edge / insert-edge alternating).
UPDATES_PER_CYCLE = 4

#: Times the whole set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Connections of the capacity and open-loop phases (= nproc of the box).
MAX_CONNECTIONS = 2

#: An open-loop phase whose generator ran later than this (at p95 over the
#: phase) is invalid.
MAX_LATE_P95_MS = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(generator name, *positional args)`` for ``repro.graph.generators``.
    graph: Tuple
    partitions: int
    executor: str
    cache_capacity: int
    use_cache: bool
    #: ``|S| = |T|`` of every query.
    set_size: int
    #: 0: every request is a distinct query; else requests draw from a pool.
    pool: int
    #: Zipf exponent of the pool draws (0 = uniform).
    zipf_s: float
    #: Untimed requests sent before the first timed phase.
    warmup: int
    #: The timed phases are cut into this many slices, run round-robin, so
    #: every metric samples the whole run and not one window of it.
    rounds: int
    #: Closed loop, 1 connection, 1 outstanding (total over all rounds).
    closed1: int
    #: Closed loop, MAX_CONNECTIONS connections (capacity).
    closed2: int
    #: Open loop at ``open_rate`` requests/second.  Only the traced run has
    #: one (its rate ladder); ``open_n`` is 0 in the table below.
    open_n: int
    open_rate: float
    #: Write cycles: UPDATES_PER_CYCLE updates, 1 fresh read, then
    #: ``reads_per_cycle`` pool reads, strictly sequential on one connection.
    cycles: int
    reads_per_cycle: int
    #: True: cycles are the workload (sliced into the rounds); False: they
    #: are a tail after the read phases, so they cannot disturb them.
    cycles_in_rounds: bool
    #: Traced run: queries replayed through the ladder / per open-loop rate
    #: rung / write cycles replayed in-process.
    prefix: int
    ladder_n: int
    traced_cycles: int

    def scaled(self, seconds: float) -> "Workload":
        """The same workload with every timed count scaled to ``seconds``."""
        factor = seconds / BASE_SECONDS

        def scale(count: int) -> int:
            if count == 0:
                return 0
            per_round = max(1, round(count * factor / self.rounds))
            return per_round * self.rounds

        return replace(
            self,
            closed1=scale(self.closed1),
            closed2=scale(self.closed2),
            cycles=scale(self.cycles) if self.cycles_in_rounds
            else max(2, round(self.cycles * factor)),
        )


_DAG = ("dag", 2000, 8000)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="point_uncached",
            why="distinct 8x8 queries, cache off: per-query fixed cost of "
            "core.query/service.planner/dispatch dominates, kernel and cache idle",
            graph=_DAG, partitions=4, executor="serial",
            cache_capacity=1024, use_cache=False, set_size=8, pool=0, zipf_s=0.0,
            warmup=30, rounds=10, closed1=800, closed2=900, open_n=0, open_rate=60.0,
            cycles=12, reads_per_cycle=0, cycles_in_rounds=False,
            prefix=200, ladder_n=90, traced_cycles=6,
        ),
        Workload(
            name="hot_skewed",
            why="Zipf(1.1) draws from 2000 queries over a 256-entry cache "
            "(hit rate ~0.74): service.aio/protocol/cache do the work, engine only on misses",
            graph=_DAG, partitions=4, executor="serial",
            cache_capacity=256, use_cache=True, set_size=8, pool=2000, zipf_s=1.1,
            warmup=1200, rounds=10, closed1=2400, closed2=3000, open_n=0, open_rate=200.0,
            cycles=12, reads_per_cycle=0, cycles_in_rounds=False,
            prefix=1000, ladder_n=300, traced_cycles=6,
        ),
        Workload(
            name="batch_sharded",
            why="distinct 128x128 queries on 2 worker processes: kernels, planner "
            "batching (4 batches/query), pair materialisation and reply codec dominate",
            graph=_DAG, partitions=2, executor="processes",
            cache_capacity=1024, use_cache=False, set_size=128, pool=0, zipf_s=0.0,
            warmup=4, rounds=5, closed1=60, closed2=70, open_n=0, open_rate=5.0,
            cycles=12, reads_per_cycle=0, cycles_in_rounds=False,
            prefix=30, ladder_n=12, traced_cycles=6,
        ),
        Workload(
            name="mixed_rw",
            why="SCC-rich web graph, cache on, 4 updates then a fresh read then 48 "
            "pool reads per cycle: the write path and cache invalidation beside reads",
            graph=("web_graph", 1000, 5.5), partitions=4, executor="serial",
            cache_capacity=1024, use_cache=True, set_size=8, pool=16, zipf_s=0.0,
            warmup=16, rounds=5, closed1=0, closed2=0, open_n=0, open_rate=150.0,
            cycles=20, reads_per_cycle=48, cycles_in_rounds=True,
            prefix=200, ladder_n=200, traced_cycles=8,
        ),
    )
}

#: ``(name, unit, better, bound)``; every workload emits every one of them
#: with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("capacity_qps", "1/s", "higher", 0.20),
    ("write_visible_p50_ms", "ms", "lower", 0.20),
    ("update_ack_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

#: ``(name, unit, better)``; every workload emits every one of them with
#: ``--trace 1`` (zero where the layer is idle on that workload).
PER_LAYER = (
    ("reachability.kernel_ms", "ms", "lower"),
    ("core.query.run_ms", "ms", "lower"),
    ("core.query.self_ms", "ms", "lower"),
    ("core.query.messages_per_query", "count", "lower"),
    ("core.query.bytes_per_query", "B", "lower"),
    ("core.query.pairs_per_query", "count", "higher"),
    ("core.query.stale_retries", "count", "lower"),
    ("service.planner.plan_ms", "ms", "lower"),
    ("service.planner.batches_per_query", "count", "lower"),
    ("service.server.handle_ms", "ms", "lower"),
    ("service.server.self_ms", "ms", "lower"),
    ("service.server.update_ms", "ms", "lower"),
    ("service.cache.hit_rate", "ratio", "higher"),
    ("service.cache.get_hit_ms", "ms", "lower"),
    ("service.cache.evictions", "count", "lower"),
    ("service.cache.invalidations", "count", "lower"),
    ("service.protocol.encode_ms", "ms", "lower"),
    ("service.protocol.decode_ms", "ms", "lower"),
    ("service.protocol.reply_bytes", "B", "lower"),
    ("service.aio.rtt_ms", "ms", "lower"),
    ("service.aio.self_ms", "ms", "lower"),
    ("service.aio.rtt_p90_ms", "ms", "lower"),
    ("service.aio.loaded_p50_ms", "ms", "lower"),
    ("service.aio.late_p99_ms", "ms", "lower"),
    ("service.aio.shed_total", "count", "lower"),
    ("service.aio.paused_total", "count", "lower"),
    ("service.aio.rate_ladder.0.5x.p90_ms", "ms", "lower"),
    ("service.aio.rate_ladder.1x.p90_ms", "ms", "lower"),
    ("service.aio.rate_ladder.1.5x.p90_ms", "ms", "lower"),
    ("cluster.executors.task_ms", "ms", "lower"),
    ("cluster.executors.dispatch_ms", "ms", "lower"),
    ("cluster.executors.payload_bytes", "B", "lower"),
    ("cluster.executors.hydrate_ms", "ms", "lower"),
    ("cluster.executors.respawns", "count", "lower"),
    ("cluster.shm.publish_bytes", "B", "lower"),
    ("cluster.shm.attach_total", "count", "lower"),
    ("graph.csr_build_ms", "ms", "lower"),
    ("partition.make_ms", "ms", "lower"),
    ("core.index.build_ms", "ms", "lower"),
    ("graph.scc.condense_ms", "ms", "lower"),
    ("core.summary.build_ms", "ms", "lower"),
    ("core.index.bytes", "B", "lower"),
    ("core.index.bytes_per_vertex", "B", "lower"),
    ("service.start_ms", "ms", "lower"),
    ("core.updates.apply_ms", "ms", "lower"),
    ("core.updates.flush_ms", "ms", "lower"),
    ("core.updates.flush_snapshot_ms", "ms", "lower"),
    ("core.updates.flush_heavy_ms", "ms", "lower"),
    ("core.updates.dirty_partitions_per_flush", "count", "lower"),
    ("core.updates.noop_flushes", "count", "lower"),
    ("core.updates.rss_growth_mb", "MiB", "lower"),
    ("spine.machine_ref_ms", "ms", "lower"),
    ("spine.trace_overhead_pct", "%", "lower"),
    ("spine.error_rate", "ratio", "lower"),
    ("spine.leaked_processes", "count", "lower"),
)

RATE_LADDER = ("0.5x", "1x", "1.5x")
