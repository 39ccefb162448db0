"""The rig and the untraced run of one workload (``python -m spinelib`` runs it).

Builds the rig (graph -> partitioning -> engine -> ``DSRService`` ->
``DSRAsyncServer`` on its own thread), drives it from a single-threaded
asyncio load generator in this same process (client and server share one
GIL — a stated constant of the rig), checks every answer against
``reachable_pairs`` after the timed phases.
"""

from __future__ import annotations

import asyncio
import gc
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import DSRConfig, open_engine
from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_pairs
from repro.partition.partition import make_partitioning
from repro.service import (
    DSRAsyncClient,
    DSRAsyncServer,
    DSRService,
    QueryRequest,
    UpdateRequest,
)

from spinelib import gen, loadgen, spec
from spinelib.reference import Yardstick, in_reference, scale_of
from spinelib.stats import median, percentile, tail_percent, trimmed_rate

SERVICE_WORKERS = 2
CLIENT_TIMEOUT_SECONDS = 60.0


# ---------------------------------------------------------------------- #
# the rig
# ---------------------------------------------------------------------- #
@dataclass
class Rig:
    engine: Any
    service: DSRService
    server: DSRAsyncServer
    #: Seconds per set-up stage, in order; their sum is one ``setup_s`` sample.
    stages: Dict[str, float]

    @property
    def setup_seconds(self) -> float:
        return sum(self.stages.values())


def engine_config(workload: spec.Workload) -> DSRConfig:
    return DSRConfig(
        num_partitions=workload.partitions,
        partitioner="metis",
        local_index="msbfs",
        executor=workload.executor,
        epoch_flush="inline",
        kernels="auto",
    )


def query_message(workload: spec.Workload, query: gen.Query) -> QueryRequest:
    return QueryRequest(query[0], query[1], "auto", workload.use_cache)


async def _first_query(address: Tuple[str, int], message: QueryRequest) -> None:
    async with DSRAsyncClient(*address, timeout=CLIENT_TIMEOUT_SECONDS) as client:
        reply = await client.request(message)
    if not hasattr(reply, "pairs"):
        raise RuntimeError(f"set-up probe query failed: {reply!r}")


@contextmanager
def open_rig(workload: spec.Workload, graph: DiGraph, probe: gen.Query) -> Iterator[Rig]:
    """Graph in memory -> first query answered over the wire, then tear down.

    The engine owns (and under updates mutates) ``graph``; pass a copy.
    """
    stages: Dict[str, float] = {}
    mark = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        stages[name] = now - mark
        mark = now

    partitioning = make_partitioning(graph, workload.partitions, "metis", seed=0)
    lap("partition")
    engine = open_engine(graph, engine_config(workload), partitioning=partitioning)
    try:
        lap("index")
        service = DSRService(
            engine, num_workers=SERVICE_WORKERS, cache_capacity=workload.cache_capacity
        )
        try:
            server = DSRAsyncServer(service).start_in_thread()
            try:
                # Never cached, so the probe leaves the result cache empty.
                asyncio.run(_first_query(
                    server.address, QueryRequest(probe[0], probe[1], "auto", False)
                ))
                lap("service")
                yield Rig(engine, service, server, stages)
            finally:
                server.stop_from_thread()
        finally:
            service.close()
    finally:
        engine.close()


class Clients:
    """``count`` connections to the rig's server, as one ``send`` callable."""

    def __init__(self, address: Tuple[str, int], count: int) -> None:
        self._clients = [
            DSRAsyncClient(*address, timeout=CLIENT_TIMEOUT_SECONDS) for _ in range(count)
        ]

    async def __aenter__(self) -> "Clients":
        for client in self._clients:
            await client.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        for client in self._clients:
            await client.close()

    def send(self, connection: int, message: Any):
        return self._clients[connection].request(message)


# ---------------------------------------------------------------------- #
# the untraced run
# ---------------------------------------------------------------------- #
class Script:
    """The request stream of one run, handed out phase by phase.

    Keeps one :class:`loadgen.Op` per operation sent, in sending order; the
    oracle check reads them after the timed phases.
    """

    def __init__(self, workload: spec.Workload, inputs: gen.Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.ops: List[loadgen.Op] = []
        self._cursor = 0
        self._cycle = 0
        self.version = 0

    def _query(self, key: int) -> Tuple[QueryRequest, loadgen.Op]:
        op = loadgen.Op("query", key, self.version)
        self.ops.append(op)
        return query_message(self.workload, self.inputs.queries[key]), op

    def again(self, op: loadgen.Op) -> loadgen.Op:
        """A second send of ``op``'s request, checked like the first."""
        self.ops.append(loadgen.Op(op.kind, op.key, op.version))
        return self.ops[-1]

    def reads(self, count: int) -> Tuple[List[QueryRequest], List[loadgen.Op]]:
        keys = self.inputs.stream[self._cursor:self._cursor + count]
        if len(keys) != count:
            raise RuntimeError("request stream exhausted")
        self._cursor += count
        pairs = [self._query(key) for key in keys]
        return [m for m, _ in pairs], [o for _, o in pairs]

    def cycle(self):
        """``(updates, fresh read, pool reads)`` of the next write cycle."""
        base = self._cycle * spec.UPDATES_PER_CYCLE
        updates = []
        for slot in range(base, base + spec.UPDATES_PER_CYCLE):
            op = loadgen.Op("update", slot, self.version)
            self.ops.append(op)
            updates.append((UpdateRequest(*self.inputs.updates[slot]), op))
        self.version = base + spec.UPDATES_PER_CYCLE
        fresh = self._query(self.inputs.fresh[self._cycle])
        self._cycle += 1
        messages, ops = self.reads(self.workload.reads_per_cycle)
        return updates, fresh, list(zip(messages, ops))


#: Yardstick spins before and after every set-up.
SETUP_TICKS = 20
#: In a capacity slice connection 0 spins the yardstick after every so many
#: of its replies.  Everything is on one CPU under one GIL, so the spin
#: stops the server too and its time is simply taken off the slice's.
CAPACITY_PAUSE_EVERY = 3


@dataclass
class Samples:
    #: Closed loop at one connection: round trips and their yardstick readings.
    closed1: List[float] = field(default_factory=list)
    closed1_refs: List[float] = field(default_factory=list)
    #: Capacity slices: requests, and the seconds they took — reference
    #: seconds for in-process executors, wall seconds with worker processes.
    closed2_ops: List[int] = field(default_factory=list)
    closed2_busy: List[float] = field(default_factory=list)
    cycles: loadgen.CycleResult = field(default_factory=loadgen.CycleResult)
    #: ``ru_maxrss`` when the first update was about to be sent.
    rss_before_writes: float = 0.0
    yardstick: Yardstick = field(default_factory=Yardstick)


async def drive(workload: spec.Workload, script: Script, address: Tuple[str, int]) -> Samples:
    samples = Samples()
    rounds = workload.rounds
    yardstick = samples.yardstick
    # A yardstick reading is only the machine's speed while nothing else
    # can run: always under the GIL, but with shard worker processes only
    # while no request is in flight.
    in_process = workload.executor == "serial"
    async with Clients(address, spec.MAX_CONNECTIONS) as clients:

        async def cycle() -> None:
            if not samples.cycles.refs:
                samples.rss_before_writes = peak_rss_mb()
            await loadgen.write_cycle(
                clients.send, *script.cycle(), samples.cycles, pause=yardstick.tick
            )

        messages, ops = script.reads(workload.warmup)
        await loadgen.closed_loop(clients.send, messages, ops)
        for _ in range(rounds):
            if workload.closed1:
                messages, ops = script.reads(workload.closed1 // rounds)
                result = await loadgen.closed_loop(
                    clients.send, messages, ops, pause=yardstick.tick
                )
                samples.closed1.extend(result.latencies)
                samples.closed1_refs.extend(result.refs)
            if workload.closed2:
                messages, ops = script.reads(workload.closed2 // rounds)
                samples.closed2_ops.append(len(messages))
                if in_process:
                    # The slice's own readings say how slow the machine was
                    # while it ran.
                    result = await loadgen.closed_loop(
                        clients.send, messages, ops, connections=spec.MAX_CONNECTIONS,
                        pause=yardstick.tick, pause_every=CAPACITY_PAUSE_EVERY,
                    )
                    samples.closed2_busy.append(result.busy * scale_of(result.readings))
                else:
                    result = await loadgen.closed_loop(
                        clients.send, messages, ops, connections=spec.MAX_CONNECTIONS
                    )
                    samples.closed2_busy.append(result.busy)
            if workload.cycles_in_rounds:
                for _ in range(workload.cycles // rounds):
                    await cycle()
        if not workload.cycles_in_rounds:
            for _ in range(workload.cycles):
                await cycle()
    return samples


# ---------------------------------------------------------------------- #
# the oracle
# ---------------------------------------------------------------------- #
def check_answers(
    graph: DiGraph, inputs: gen.Inputs, ops: Sequence[loadgen.Op]
) -> List[str]:
    """Every failure of ``ops``: typed errors and answers != ``reachable_pairs``.

    ``graph`` is the pristine generated graph; it is mutated into the
    shadow graph as of each op's ``version`` (updates applied so far).
    """
    failures: List[str] = []
    expected: Dict[Tuple[int, int], Tuple[int, int]] = {}
    applied = 0
    for op in sorted(ops, key=lambda op: op.version):
        if op.error is not None:
            failures.append(f"{op.kind} #{op.key}: {op.error}")
            continue
        if op.kind != "query":
            continue
        while applied < op.version:
            gen.apply_update(graph, inputs.updates[applied])
            applied += 1
        want = expected.get((op.version, op.key))
        if want is None:
            sources, targets = inputs.queries[op.key]
            pairs = tuple(sorted(reachable_pairs(graph, sources, targets)))
            want = expected[(op.version, op.key)] = (len(pairs), hash(pairs))
        if op.answer != want:
            failures.append(
                f"query #{op.key} after {op.version} updates: got {op.answer[0]} pairs, "
                f"oracle has {want[0]} (S={inputs.queries[op.key][0]}, "
                f"T={inputs.queries[op.key][1]})"
            )
    return failures


# ---------------------------------------------------------------------- #
# results
# ---------------------------------------------------------------------- #
def metric(value: float, unit: str, n: Optional[int] = None) -> Dict[str, Any]:
    entry: Dict[str, Any] = {"value": value, "unit": unit}
    if n is not None:
        entry["n"] = n
    return entry


def ms(samples: Sequence[float], percent: float = 50.0) -> Dict[str, Any]:
    """A percentile of ``samples`` (seconds) in ms; 0 where a layer saw no traffic."""
    if not samples:
        return metric(0.0, "ms", 0)
    return metric(percentile(samples, percent) * 1e3, "ms", len(samples))


def tail(samples: Sequence[float]) -> Dict[str, Any]:
    """Highest percentile the sample supports, named in the entry."""
    percent = tail_percent(len(samples))
    if percent is None:
        return {**ms(samples, 100.0), "percentile": "max"}
    return {**ms(samples, percent), "percentile": f"p{percent:g}"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: spec.Workload, seed: int) -> Dict[str, Any]:
    graph = gen.make_graph(workload)
    inputs = gen.make_inputs(workload, graph, seed)
    probe = inputs.queries[inputs.stream[0]]
    setups: List[float] = []
    around_setups = Yardstick()
    for _ in range(spec.SETUP_REPEATS - 1):
        around_setups.ticks(SETUP_TICKS)
        with open_rig(workload, graph.copy(), probe) as rig:
            setups.append(rig.setup_seconds)
        # The torn-down rig is garbage; without this the next one is built
        # beside it and peak RSS measures two rigs some of the time.
        del rig
        gc.collect()
    around_setups.ticks(SETUP_TICKS)
    with open_rig(workload, graph.copy(), probe) as rig:
        setups.append(rig.setup_seconds)
        around_setups.ticks(SETUP_TICKS)
        script = Script(workload, inputs)
        samples = asyncio.run(drive(workload, script, rig.server.address))
    rss = peak_rss_mb()
    failures = check_answers(graph, inputs, script.ops)

    # Wall seconds -> reference seconds (see spinelib.reference): a round
    # trip by the spins on either side of it, a cycle by those around it, a
    # capacity slice by its own (worker processes: by the run's median).
    cycles = samples.cycles
    if samples.closed1:
        reads, read_refs = samples.closed1, samples.closed1_refs
    else:
        reads, read_refs = cycles.read_latencies, cycles.read_refs
    if not samples.closed2_ops:
        operations, busy = cycles.operations, in_reference(cycles.busy, cycles.refs)
    elif workload.executor == "serial":
        operations, busy = samples.closed2_ops, samples.closed2_busy
    else:
        scale = samples.yardstick.scale()
        operations = samples.closed2_ops
        busy = [seconds * scale for seconds in samples.closed2_busy]
    metrics = {
        "setup_s": metric(median(setups) * around_setups.scale(), "s", len(setups)),
        "latency_p50_ms": ms(in_reference(reads, read_refs)),
        "capacity_qps": metric(trimmed_rate(operations, busy), "1/s", len(operations)),
        "write_visible_p50_ms": ms(in_reference(cycles.write_visible, cycles.refs)),
        "update_ack_p50_ms": ms(in_reference(cycles.update_acks, cycles.refs)),
        "peak_rss_mb": metric(samples.rss_before_writes, "MiB"),
    }
    replies = sum(1 for op in script.ops if op.kind == "query" and op.error is None)
    detail = {
        "spine.machine_ref_ms": ms(samples.yardstick.samples),
        "core.updates.rss_growth_mb": metric(rss - samples.rss_before_writes, "MiB"),
        "wall.setup_s": metric(median(setups), "s", len(setups)),
        "wall.latency_p50_ms": ms(reads),
        "wall.latency_tail_ms": tail(reads),
        "wall.write_visible_p50_ms": ms(cycles.write_visible),
        "wall.update_ack_p50_ms": ms(cycles.update_acks),
        "service.cache.hit_rate": metric(
            sum(op.cached for op in script.ops) / replies, "ratio", replies),
        "spine.error_rate": metric(len(failures) / len(script.ops), "ratio", len(script.ops)),
    }
    return {
        "metrics": metrics,
        "detail": detail,
        "attempted": len(script.ops),
        "failed": len(failures),
        "failures": failures[:20],
        "invalid": [],
    }
