"""Single-threaded asyncio load generator: closed loop, open loop, write cycles.

``send`` is any ``async (connection_index, message) -> reply``; the worker
binds it to ``DSRAsyncClient.request``.  ``clock``/``sleep`` are injectable
so the due-time accounting can be tested on a fake clock.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, List, Optional, Sequence, Tuple

from spinelib.stats import percentile

Send = Callable[[int, Any], Awaitable[Any]]


@dataclass
class Op:
    """One operation as the oracle check needs it (kept outside timed code)."""

    kind: str              # "query" | "update"
    key: int               # index into Inputs.queries / Inputs.updates
    version: int           # updates applied to the graph when it was answered
    answer: Any = None     # (len(pairs), hash(pairs)) for a query reply
    cached: bool = False   # the reply said it came from the result cache
    error: Optional[str] = None


def digest(reply: Any) -> Tuple[Any, Optional[str]]:
    """``(answer, error)`` of a reply; cheap enough to run between requests."""
    pairs = getattr(reply, "pairs", None)
    if pairs is not None:
        return (len(pairs), hash(pairs)), None
    if hasattr(reply, "structural_change"):
        return None, None
    return None, f"{getattr(reply, 'error', type(reply).__name__)}: {getattr(reply, 'message', '')}"


def record(op: Op, reply: Any) -> None:
    op.answer, op.error = digest(reply)
    op.cached = bool(getattr(reply, "cached", False))


async def _timed(send: Send, connection: int, message: Any, op: Op, clock) -> float:
    start = clock()
    try:
        reply = await send(connection, message)
    except Exception as exc:  # boundary: record the failure, keep the run going
        op.error = f"{type(exc).__name__}: {exc}"
        return clock() - start
    elapsed = clock() - start
    record(op, reply)
    return elapsed


@dataclass
class ClosedResult:
    latencies: List[float]
    #: Wall time of the loop, less the time spent inside ``pause``.
    busy: float
    #: The ``pause`` readings, in order (one more than pauses between requests).
    readings: List[float]

    @property
    def refs(self) -> List[float]:
        """Per request of a one-connection loop: mean of the readings around it."""
        return _between(self.readings)


def _no_pause() -> float:
    return 1.0


def _between(readings: Sequence[float]) -> List[float]:
    """Mean of each two neighbouring readings."""
    return [(a + b) / 2 for a, b in zip(readings, readings[1:])]


async def closed_loop(
    send: Send,
    messages: Sequence[Any],
    ops: Sequence[Op],
    connections: int = 1,
    clock=time.perf_counter,
    pause: Callable[[], float] = _no_pause,
    pause_every: int = 1,
) -> ClosedResult:
    """Each connection sends its next request when its previous one returned.

    Request ``i`` goes to connection ``i % connections``, so the split does
    not depend on timing.  ``pause`` (the yardstick of
    :mod:`spinelib.reference`) runs before the first request and after every
    ``pause_every``-th reply of connection 0, outside the timed round trips;
    its readings come back, and the time it took is not counted as ``busy``.
    """
    latencies: List[float] = [0.0] * len(messages)
    paused = 0.0

    def read_yardstick() -> float:
        nonlocal paused
        start = clock()
        reading = pause()
        paused += clock() - start
        return reading

    start = clock()
    readings = [read_yardstick()]

    async def one_connection(connection: int) -> None:
        for count, index in enumerate(range(connection, len(messages), connections), 1):
            latencies[index] = await _timed(send, connection, messages[index], ops[index], clock)
            if connection == 0 and count % pause_every == 0:
                readings.append(read_yardstick())

    await asyncio.gather(*(one_connection(c) for c in range(connections)))
    return ClosedResult(latencies, clock() - start - paused, readings)


@dataclass
class OpenResult:
    #: Completion minus *due* time, so a stall charges every request it delays.
    latencies: List[float]
    #: Send minus due time: how late the generator itself ran.
    lateness: List[float]
    #: Requests outstanding at each send.
    backlog: List[int]


def slice_problem(result: "OpenResult", max_late: float) -> Optional[str]:
    """Why one open-loop slice is unsound, if it is.

    Lateness is judged at p95: a slice is tens to hundreds of sends, so p99
    would be its largest sample or two.
    """
    late = percentile(result.lateness, 95.0)
    if late > max_late:
        return f"generator late p95 {late * 1e3:.1f} ms > {max_late * 1e3:.0f} ms"
    if backlog_growing(result.backlog):
        return f"backlog still growing at the end: {result.backlog[-8:]}"
    return None


def backlog_growing(backlog: Sequence[int]) -> bool:
    """True when the last quarter holds a larger backlog than any earlier point."""
    if len(backlog) < 8:
        return False
    cut = len(backlog) - len(backlog) // 4
    tail = percentile(backlog[cut:], 50.0)
    return tail > 4 and tail > max(backlog[:cut])


async def open_loop(
    send: Send,
    messages: Sequence[Any],
    ops: Sequence[Op],
    rate: float,
    connections: int = 1,
    clock=time.perf_counter,
    sleep=asyncio.sleep,
) -> OpenResult:
    """Send request ``i`` at ``start + i / rate`` whatever the replies do."""
    count = len(messages)
    result = OpenResult([0.0] * count, [0.0] * count, [0] * count)
    outstanding = 0

    async def one_request(index: int, due: float) -> None:
        nonlocal outstanding
        await _timed(send, index % connections, messages[index], ops[index], clock)
        result.latencies[index] = clock() - due
        outstanding -= 1

    tasks = []
    start = clock()
    for index in range(count):
        due = start + index / rate
        delay = due - clock()
        if delay > 0:
            await sleep(delay)
        result.lateness[index] = max(0.0, clock() - due)
        result.backlog[index] = outstanding
        outstanding += 1
        tasks.append(asyncio.ensure_future(one_request(index, due)))
    await asyncio.gather(*tasks)
    return result


#: Yardstick readings on each side of a cycle's write part, which takes
#: hundreds of milliseconds: two readings would be a coin toss.
BRACKET = 5


@dataclass
class CycleResult:
    """Samples of the write cycles, one list entry per cycle unless said."""

    #: Mean round trip of the cycle's updates.  Deletes and inserts
    #: alternate and cost differently, so the median over single acks would
    #: sit between two modes and jump from run to run.
    update_acks: List[float] = field(default_factory=list)
    #: First update sent -> reply of the fresh read that reflects them all.
    write_visible: List[float] = field(default_factory=list)
    #: Median of the ``pause`` readings taken just before the first update
    #: and just after the fresh read (BRACKET of them on each side).
    refs: List[float] = field(default_factory=list)
    #: Operations of the cycle, and the time spent in them.
    operations: List[int] = field(default_factory=list)
    busy: List[float] = field(default_factory=list)
    #: Per pool read (not per cycle): round trip, and its ``pause`` readings.
    read_latencies: List[float] = field(default_factory=list)
    read_refs: List[float] = field(default_factory=list)


async def write_cycle(
    send: Send,
    updates: Sequence[Tuple[Any, Op]],
    fresh: Tuple[Any, Op],
    reads: Sequence[Tuple[Any, Op]],
    result: CycleResult,
    clock=time.perf_counter,
    pause: Callable[[], float] = _no_pause,
) -> None:
    """One cycle, strictly sequential on connection 0.

    ``pause`` runs between operations, never between the first update and
    the fresh read's reply.
    """
    bracket = [pause() for _ in range(BRACKET)]
    start = clock()
    acks = [await _timed(send, 0, message, op, clock) for message, op in updates]
    await _timed(send, 0, fresh[0], fresh[1], clock)
    visible = clock() - start
    bracket += [pause() for _ in range(BRACKET)]
    readings = bracket[-1:]
    reads_took = []
    for message, op in reads:
        reads_took.append(await _timed(send, 0, message, op, clock))
        readings.append(pause())
    result.update_acks.append(sum(acks) / len(acks))
    result.write_visible.append(visible)
    result.refs.append(percentile(bracket, 50.0))
    result.operations.append(len(updates) + 1 + len(reads))
    result.busy.append(visible + sum(reads_took))
    result.read_latencies.extend(reads_took)
    result.read_refs.extend(_between(readings))
