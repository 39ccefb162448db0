"""The traced run: per-layer metrics from spans recorded outside the program.

Nothing under ``src/`` is edited.  The rig's public calls
(``DSRService.handle`` / ``handle_nowait``, ``QueryPlanner.plan``,
``engine.run`` / ``insert_edge`` / ``delete_edge``,
``CompoundGraph.local_set_reachability_rows``) are wrapped per instance for
the duration of one request, so a request sent over the wire with one
request in flight yields one span tree: round trip -> handle -> plan, run ->
kernel.  ``pack_frame`` / ``unpack_frame`` are module functions the program
imports by name, so they are timed by calling them on the actual request
and reply instead.  Counts are read from ``repro.obs`` registries, the
result cache and the replies, before and after.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.equivalence import ClassIdAllocator
from repro.core.summary import build_partition_summary
from repro.graph import scc
from repro.obs import global_registry
from repro.service.protocol import pack_frame, unpack_frame

from spinelib import gen, loadgen, spec
from spinelib.reference import Yardstick
from spinelib.stats import Tracer, median, per_request
from spinelib.worker import (
    Clients, Rig, Script, check_answers, metric, ms, open_rig, peak_rss_mb,
)

#: Overhead pairs replayed per run (each is two extra round trips).
MAX_OVERHEAD_PAIRS = 200
#: Yardstick spins before every open-loop rung.
SLICE_TICKS = 10


class Hooks:
    """Span wrappers over the rig's public calls; ``on()`` for one request."""

    def __init__(self, tracer: Tracer, rig: Rig) -> None:
        service, engine = rig.service, rig.engine
        targets = [
            (service, "handle", "service.server.handle"),
            (service, "handle_nowait", "service.cache.handle_nowait"),
            (service.planner, "plan", "service.planner.plan"),
            (engine, "run", "core.query.run"),
            (engine, "insert_edge", "core.updates.apply"),
            (engine, "delete_edge", "core.updates.apply"),
        ]
        targets += [
            (compound, "local_set_reachability_rows", "reachability.kernel")
            for compound in engine.index.compound_graphs.values()
        ]
        self._wrapped = [
            (obj, attr, tracer.wrap(name, getattr(obj, attr))) for obj, attr, name in targets
        ]

    def on(self) -> None:
        for obj, attr, wrapped in self._wrapped:
            setattr(obj, attr, wrapped)

    def off(self) -> None:
        for obj, attr, _ in self._wrapped:
            delattr(obj, attr)


def histogram_sum(registry, name: str) -> float:
    """Sum of a histogram series over all its label sets (seconds)."""
    return sum(
        entry["sum"] for key, entry in registry.as_dict()["histograms"].items()
        if key == name or key.startswith(name + "{")
    )


def gauge_sum(registry, name: str) -> float:
    return sum(
        value for key, value in registry.as_dict()["gauges"].items()
        if key == name or key.startswith(name + "{")
    )


# ---------------------------------------------------------------------- #
# set-up stages, each timed on its own
# ---------------------------------------------------------------------- #
def setup_metrics(workload: spec.Workload, graph, rig: Rig) -> Dict[str, Dict[str, Any]]:
    start = time.perf_counter()
    graph.copy().csr()
    csr_seconds = time.perf_counter() - start  # includes the copy: csr() caches per graph

    partitioning = rig.engine.partitioning
    allocator = ClassIdAllocator(max(graph.vertices()) + 1)
    condense_seconds = summary_seconds = 0.0
    for pid in range(partitioning.num_partitions):
        local = partitioning.local_subgraph(pid)
        start = time.perf_counter()
        scc.condense(local)
        condense_seconds += time.perf_counter() - start
        start = time.perf_counter()
        build_partition_summary(
            pid, local, partitioning.in_boundaries(pid), partitioning.out_boundaries(pid),
            allocator, local_index_name=rig.engine.index.summary_strategy,
        )
        summary_seconds += time.perf_counter() - start
    index_bytes = rig.engine.index_sizes()["total_bytes"]
    return {
        "graph.csr_build_ms": metric(csr_seconds * 1e3, "ms"),
        "partition.make_ms": metric(rig.stages["partition"] * 1e3, "ms"),
        "core.index.build_ms": metric(rig.stages["index"] * 1e3, "ms"),
        "service.start_ms": metric(rig.stages["service"] * 1e3, "ms"),
        "graph.scc.condense_ms": metric(condense_seconds * 1e3, "ms"),
        "core.summary.build_ms": metric(summary_seconds * 1e3, "ms"),
        "core.index.bytes": metric(float(index_bytes), "B"),
        "core.index.bytes_per_vertex": metric(index_bytes / graph.num_vertices, "B"),
    }


# ---------------------------------------------------------------------- #
# the wire rungs
# ---------------------------------------------------------------------- #
async def wire_rungs(
    workload: spec.Workload, script: Script, address: Tuple[str, int],
    tracer: Tracer, hooks: Hooks, yardstick: Yardstick,
) -> Dict[str, Any]:
    """Warm-up, the traced prefix with overhead pairs, then the rate ladder."""
    out: Dict[str, Any] = {
        "replies": [], "engine_sends": 0, "untraced": [], "traced": [], "ladder": {},
        "late": [], "unsound": {},
    }
    async with Clients(address, spec.MAX_CONNECTIONS) as clients:
        messages, ops = script.reads(workload.warmup)
        await loadgen.closed_loop(clients.send, messages, ops)

        async def timed_send(message, op, request) -> Tuple[float, Any]:
            """One round trip; traced (wrappers on, under a span) iff ``request``."""
            if request is None:
                start = time.perf_counter()
                reply = await clients.send(0, message)
                elapsed = time.perf_counter() - start
            else:
                hooks.on()
                try:
                    start = time.perf_counter()
                    with tracer.span("service.aio.rtt", request=request, adopt=True):
                        reply = await clients.send(0, message)
                    elapsed = time.perf_counter() - start
                finally:
                    hooks.off()
            loadgen.record(op, reply)
            out["engine_sends"] += not getattr(reply, "cached", True)
            return elapsed, reply

        messages, ops = script.reads(workload.closed1)
        out["messages"] = messages
        for index, (message, op) in enumerate(zip(messages, ops)):
            out["replies"].append((await timed_send(message, op, index))[1])
            yardstick.tick()
            if index >= MAX_OVERHEAD_PAIRS:
                continue
            # The same request twice more, traced and untraced in alternating
            # order: cached workloads answer both from the cache, uncached
            # ones run the engine both times, so the pair differs by the
            # wrappers only.
            for traced in ((True, False) if index % 2 else (False, True)):
                elapsed, _ = await timed_send(
                    message, script.again(op), f"replay-{index}" if traced else None
                )
                out["traced" if traced else "untraced"].append(elapsed)

        for rung in spec.RATE_LADDER:
            yardstick.ticks(SLICE_TICKS)
            messages, ops = script.reads(workload.open_n // len(spec.RATE_LADDER))
            opened = await loadgen.open_loop(
                clients.send, messages, ops, workload.open_rate * float(rung[:-1]),
                connections=spec.MAX_CONNECTIONS,
            )
            out["ladder"][rung] = opened.latencies
            out["late"].extend(opened.lateness)
            out["unsound"][rung] = loadgen.slice_problem(opened, spec.MAX_LATE_P95_MS / 1e3)
    return out


def protocol_rung(tracer: Tracer, messages: Sequence[Any], replies: Sequence[Any]) -> List[int]:
    """Encode and decode each actual request and reply; returns reply frame sizes."""
    sizes = []
    for index, (message, reply) in enumerate(zip(messages, replies)):
        frames = []
        for payload in (message, reply):
            with tracer.span("service.protocol.encode", request=index):
                frames.append(pack_frame(payload, request_id=index))
        for frame in frames:
            with tracer.span("service.protocol.decode", request=index):
                unpack_frame(frame)
        sizes.append(len(frames[1]))
    return sizes


def kernel_rung(tracer: Tracer, rig: Rig, queries: Sequence[gen.Query]) -> None:
    """``local_set_reachability_rows(S ∩ V_p)`` per partition, called directly.

    Only for executors whose kernels run in worker processes, where the
    wrappers of :class:`Hooks` see nothing: the master's copy of each
    compound graph is driven instead (no target mask, one partition after
    the other), which bounds the worker-side kernel time from above.
    """
    partitioning = rig.engine.partitioning
    compounds = rig.engine.index.compound_graphs
    for compound in compounds.values():
        compound.condensation_view()  # build lazily-built reachability untimed
    for index, (sources, _) in enumerate(queries):
        for pid, compound in compounds.items():
            local = [s for s in sources if partitioning.partition_of(s) == pid]
            if local:
                with tracer.span("reachability.kernel", request=index):
                    compound.local_set_reachability_rows(local)


# ---------------------------------------------------------------------- #
# the write rungs (in-process)
# ---------------------------------------------------------------------- #
def write_rungs(
    workload: spec.Workload, script: Script, rig: Rig, tracer: Tracer, hooks: Hooks,
    yardstick: Yardstick,
):
    flushes = []
    hooks.on()
    try:
        for cycle in range(workload.cycles):
            yardstick.tick()
            updates, (fresh, fresh_op), _ = script.cycle()
            for message, op in updates:
                with tracer.span("service.server.update", request=f"update-{op.key}"):
                    reply = rig.service.handle(message)
                loadgen.record(op, reply)
            with tracer.span("core.updates.flush", request=f"cycle-{cycle}"):
                flushes.append(rig.engine.flush_updates())
            loadgen.record(fresh_op, rig.service.handle(fresh))
    finally:
        hooks.off()
    return flushes


# ---------------------------------------------------------------------- #
# the traced run
# ---------------------------------------------------------------------- #
def _mean(values: Sequence[float], unit: str) -> Dict[str, Any]:
    return metric(sum(values) / len(values) if values else 0.0, unit, len(values))


def run_traced(workload: spec.Workload, seed: int, trace_out: Optional[str]) -> Dict[str, Any]:
    # Same generator and seed as the untraced run, so the prefix is the head
    # of the same request stream; only the phase sizes differ.
    workload = replace(
        workload, closed1=workload.prefix, closed2=0,
        open_n=workload.ladder_n * len(spec.RATE_LADDER),
        cycles=workload.traced_cycles, reads_per_cycle=0, cycles_in_rounds=False,
    )
    graph = gen.make_graph(workload)
    inputs = gen.make_inputs(workload, graph, seed)
    engine_registry = global_registry()
    tracer = Tracer()
    yardstick = Yardstick()
    script = Script(workload, inputs)
    with open_rig(workload, graph.copy(), inputs.queries[inputs.stream[0]]) as rig:
        metrics = setup_metrics(workload, graph, rig)
        hooks = Hooks(tracer, rig)
        service_registry = rig.service.metrics.registry
        cache = rig.service.cache.stats
        evictions, invalidations = cache.evictions, cache.invalidations
        stale = engine_registry.counter_total("dsr_query_stale_retries_total")
        tasks = histogram_sum(engine_registry, "dsr_shard_task_seconds")
        payload = engine_registry.counter_total("dsr_shard_payload_bytes_total")

        wire = asyncio.run(
            wire_rungs(workload, script, rig.server.address, tracer, hooks, yardstick)
        )

        engine_sends = wire["engine_sends"]
        prefix_replies = wire["replies"]
        tasks = histogram_sum(engine_registry, "dsr_shard_task_seconds") - tasks
        payload = engine_registry.counter_total("dsr_shard_payload_bytes_total") - payload
        reply_bytes = protocol_rung(tracer, wire["messages"], prefix_replies)
        if not any(s.name == "reachability.kernel" for s in tracer.spans):
            first = workload.warmup
            kernel_rung(tracer, rig, [
                inputs.queries[key] for key in inputs.stream[first:first + workload.closed1]
            ])
        rss_before_writes = peak_rss_mb()
        flushes = write_rungs(workload, script, rig, tracer, hooks, yardstick)
        maintenance = rig.engine.maintainer.maintenance_stats()

        metrics.update({
            "service.cache.evictions": metric(float(cache.evictions - evictions), "count"),
            "service.cache.invalidations": metric(float(cache.invalidations - invalidations), "count"),
            "core.query.stale_retries": metric(
                engine_registry.counter_total("dsr_query_stale_retries_total") - stale, "count"),
            "service.aio.shed_total": metric(
                service_registry.counter_total("dsr_requests_shed_total"), "count"),
            "service.aio.paused_total": metric(
                service_registry.counter_total("dsr_conn_paused_total"), "count"),
            "cluster.executors.hydrate_ms": metric(
                histogram_sum(engine_registry, "dsr_shard_hydrate_seconds") * 1e3, "ms"),
            "cluster.executors.respawns": metric(
                engine_registry.counter_total("dsr_worker_respawns_total"), "count"),
            "cluster.shm.publish_bytes": metric(
                gauge_sum(engine_registry, "dsr_epoch_publish_bytes"), "B"),
            "cluster.shm.attach_total": metric(
                engine_registry.counter_total("dsr_shard_shm_attach_total"), "count"),
            "core.updates.noop_flushes": metric(float(maintenance["noop_flushes"]), "count"),
        })
    rss = peak_rss_mb()
    failures = check_answers(graph, inputs, script.ops)

    spans = tracer.spans
    prefix = range(len(wire["messages"]))
    rtt = per_request(spans, "service.aio.rtt")
    handle = per_request(spans, "service.server.handle")
    nowait = per_request(spans, "service.cache.handle_nowait")
    plan = per_request(spans, "service.planner.plan")
    run = per_request(spans, "core.query.run")
    kernel = per_request(spans, "reachability.kernel")
    encode = per_request(spans, "service.protocol.encode")
    decode = per_request(spans, "service.protocol.decode")
    ran = [i for i in prefix if i in run]
    hits = [i for i in prefix if getattr(prefix_replies[i], "cached", False)]
    engine_replies = [prefix_replies[i] for i in ran]
    run_ms = ms([run[i] for i in ran])
    task_ms = tasks / engine_sends * 1e3 if engine_sends else 0.0
    rates = {rung: ms(wire["ladder"][rung], 90.0) for rung in spec.RATE_LADDER}
    metrics.update({
        "reachability.kernel_ms": ms([kernel.get(i, 0.0) for i in ran]),
        "core.query.run_ms": run_ms,
        "core.query.self_ms": ms([run[i] - kernel.get(i, 0.0) for i in ran]),
        "core.query.messages_per_query": _mean([r.messages_sent for r in engine_replies], "count"),
        "core.query.bytes_per_query": _mean([r.bytes_sent for r in engine_replies], "B"),
        "core.query.pairs_per_query": _mean([len(r.pairs) for r in prefix_replies], "count"),
        "service.planner.plan_ms": ms([plan[i] for i in prefix if i in plan]),
        "service.planner.batches_per_query": _mean([r.num_batches for r in engine_replies], "count"),
        "service.server.handle_ms": ms([handle[i] for i in ran]),
        "service.server.self_ms": ms([handle[i] - run[i] for i in ran]),
        "service.server.update_ms": ms(
            [s.duration for s in spans if s.name == "service.server.update"]),
        "service.cache.hit_rate": metric(len(hits) / len(prefix), "ratio", len(prefix)),
        "service.cache.get_hit_ms": ms([nowait[i] for i in hits if i in nowait]),
        "service.protocol.encode_ms": ms([encode[i] for i in prefix]),
        "service.protocol.decode_ms": ms([decode[i] for i in prefix]),
        "service.protocol.reply_bytes": _mean(reply_bytes, "B"),
        "service.aio.rtt_ms": ms([rtt[i] for i in prefix]),
        "service.aio.rtt_p90_ms": ms([rtt[i] for i in prefix], 90.0),
        "service.aio.self_ms": ms([
            rtt[i] - handle.get(i, 0.0) - nowait.get(i, 0.0) - encode[i] - decode[i]
            for i in prefix
        ]),
        "service.aio.loaded_p50_ms": ms(wire["ladder"]["1x"]),
        "service.aio.late_p99_ms": ms(wire["late"], 99.0),
        **{f"service.aio.rate_ladder.{rung}.p90_ms": rates[rung] for rung in spec.RATE_LADDER},
        "cluster.executors.task_ms": metric(task_ms, "ms", engine_sends),
        "cluster.executors.dispatch_ms": metric(
            run_ms["value"] - task_ms / workload.partitions if task_ms else 0.0, "ms"),
        "cluster.executors.payload_bytes": metric(
            payload / engine_sends if engine_sends else 0.0, "B", engine_sends),
        "core.updates.apply_ms": ms(
            [s.duration for s in spans if s.name == "core.updates.apply"]),
        "core.updates.flush_ms": ms([f.seconds for f in flushes]),
        "core.updates.flush_snapshot_ms": ms([f.snapshot_seconds for f in flushes]),
        "core.updates.flush_heavy_ms": ms([f.heavy_seconds for f in flushes]),
        "core.updates.dirty_partitions_per_flush": _mean(
            [len(f.refreshed_partitions) for f in flushes], "count"),
        "core.updates.rss_growth_mb": metric(rss - rss_before_writes, "MiB"),
        "spine.trace_overhead_pct": metric(
            median([t - u for t, u in zip(wire["traced"], wire["untraced"])])
            / median(wire["untraced"]) * 100.0, "%", len(wire["traced"])),
        "spine.error_rate": metric(len(failures) / len(script.ops), "ratio", len(script.ops)),
        "spine.leaked_processes": metric(0.0, "count"),
    })
    # Wall milliseconds -> reference milliseconds, one factor for the whole
    # run so the rungs still nest and add up (see spinelib.reference).
    scale = yardstick.scale()
    for entry in metrics.values():
        if entry["unit"] == "ms":
            entry["value"] *= scale
    metrics["spine.machine_ref_ms"] = ms(yardstick.samples)
    # The open loop is unsound when both rungs at or below the nominal rate
    # were; the 1.5x rung is allowed to saturate.
    unsound = [wire["unsound"][rung] for rung in ("0.5x", "1x")]
    if trace_out:
        path = Path(trace_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "workload": workload.name, "seed": seed, "clock": "perf_counter seconds",
            "spans": tracer.as_rows(),
        }))
    ordered = {name: metrics[name] for name, _, _ in spec.PER_LAYER}
    return {
        "metrics": ordered,
        "detail": {"rss_at_exit_mb": metric(rss, "MiB")},
        "attempted": len(script.ops),
        "failed": len(failures),
        "failures": failures[:20],
        "invalid": unsound if all(unsound) else [],
    }
