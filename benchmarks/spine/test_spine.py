"""Fast unit tests of the spine's own machinery (collected by tier-1).

They start no engine and no server: the benchmark itself is exercised by
``run.py`` / ``selfcheck.py``, not here.
"""

import asyncio
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from spinelib import gen, guard, loadgen, spec, stats  # noqa: E402
from spinelib.stats import Span  # noqa: E402


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile(samples, 100) == 100
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.median([4.0, 1.0]) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.supports(100, 90) and not stats.supports(99, 90)
    assert stats.supports(1000, 99) and not stats.supports(999, 99)
    assert stats.tail_percent(10_000) == 99.9
    assert stats.tail_percent(1000) == 99.0
    assert stats.tail_percent(480) == 95.0
    assert stats.tail_percent(100) == 90.0
    assert stats.tail_percent(40) == 75.0
    assert stats.tail_percent(24) is None


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
def _inputs(name: str, seed: int):
    workload = spec.WORKLOADS[name].scaled(2)
    graph = gen.make_graph(workload)
    return workload, graph, gen.make_inputs(workload, graph, seed)


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    def blob(seed):
        _, graph, inputs = _inputs(name, seed)
        return repr(sorted(graph.edges())).encode(), repr(inputs).encode()

    assert blob(7) == blob(7)
    assert blob(7)[0] == blob(8)[0]      # the graph is the fixed dataset
    assert blob(7)[1] != blob(8)[1]      # the traffic is what --seed draws


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_stream_covers_every_phase_and_updates_are_valid(name):
    workload, graph, inputs = _inputs(name, 7)
    assert len(inputs.stream) == gen.stream_length(workload)
    assert len(inputs.fresh) == workload.cycles
    assert len(inputs.updates) == workload.cycles * spec.UPDATES_PER_CYCLE
    assert max(inputs.stream) < len(inputs.queries)
    for op, u, v in inputs.updates:  # no update is a no-op on the shadow graph
        assert graph.has_edge(u, v) == (op == "delete-edge")
        gen.apply_update(graph, (op, u, v))


def test_scaling_keeps_counts_divisible_by_rounds():
    for workload in spec.WORKLOADS.values():
        for seconds in (1, 7, 16, 60):
            scaled = workload.scaled(seconds)
            for count in (scaled.closed1, scaled.closed2):
                assert count % scaled.rounds == 0
            assert scaled.cycles >= 2
            if scaled.cycles_in_rounds:
                assert scaled.cycles % scaled.rounds == 0
        assert workload.scaled(spec.BASE_SECONDS) == workload


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
def test_self_time_is_span_minus_union_of_children():
    spans = [
        Span("rtt", 0.0, 10.0, None, 0),      # children cover [1,7] and [8,9]
        Span("handle", 1.0, 7.0, 0, 0),       # children cover [2,5] (overlapping)
        Span("task", 2.0, 4.0, 1, 0),
        Span("task", 3.0, 5.0, 1, 0),
        Span("encode", 8.0, 9.0, 0, 0),
        Span("rtt", 20.0, 21.0, None, 1),
    ]
    assert stats.self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.0, 1.0]
    assert stats.per_request(spans, "task") == {0: 4.0}
    assert stats.per_request(spans, "rtt") == {0: 10.0, 1: 1.0}


def test_tracer_nests_per_thread_and_adopts_across_threads():
    import threading

    ticks = iter(range(100))
    tracer = stats.Tracer(clock=lambda: float(next(ticks)))
    handle = tracer.wrap("handle", lambda: None)
    with tracer.span("rtt", request=5, adopt=True):
        worker = threading.Thread(target=handle)  # empty stack: adopts the rtt span
        worker.start()
        worker.join()
        with tracer.span("encode"):
            pass
    handle()                                       # nothing to adopt any more
    rows = tracer.as_rows()
    assert [(r["name"], r["parent"], r["request"]) for r in rows] == [
        ("rtt", None, 5), ("handle", 0, 5), ("encode", 0, 5), ("handle", None, None),
    ]
    assert all(r["end"] > r["start"] for r in rows)


# ---------------------------------------------------------------------- #
# open loop on a fake clock
# ---------------------------------------------------------------------- #
class _Reply:
    pairs = ()


def test_open_loop_times_from_due_time_not_send_time():
    now = [100.0]
    service = 0.01

    async def send(connection, message):
        now[0] += service
        return _Reply()

    async def sleep(delay):
        # The generator oversleeps by 30 ms every time, and once stalls 350 ms.
        now[0] += delay + (0.35 if 100.25 < now[0] + delay < 100.35 else 0.03)
        await asyncio.sleep(0)

    ops = [loadgen.Op("query", i, 0) for i in range(8)]
    result = asyncio.run(loadgen.open_loop(
        send, [None] * 8, ops, rate=10.0, clock=lambda: now[0], sleep=sleep,
    ))
    # Single-threaded, so a send only runs while the generator sleeps (and
    # costs it 10 ms).  Requests 1-2 go out 40 ms late; the stall hits before
    # request 3; 4-6 are overdue by then and go out at once, each one period
    # less late than the one before: lateness never leaks into the schedule.
    assert result.lateness == pytest.approx([0, 0.04, 0.04, 0.36, 0.26, 0.16, 0.06, 0.07])
    # Request 3 was answered 80 ms after it was *sent* but 440 ms after it was
    # *due*; the stall charges every request it delayed.
    assert result.latencies == pytest.approx([0.14, 0.14, 0.46, 0.44, 0.35, 0.26, 0.17, 0.08])
    assert result.backlog == [0, 0, 0, 0, 1, 2, 3, 0]
    assert all(op.answer == (0, hash(())) and op.error is None for op in ops)
    assert "generator late" in loadgen.slice_problem(result, 0.02)
    result.lateness[:] = [0.001] * 7 + [0.5]     # p95 of 8 samples is the largest
    assert "generator late" in loadgen.slice_problem(result, 0.02)
    result.lateness[:] = [0.001] * 8
    assert loadgen.slice_problem(result, 0.02) is None


def test_backlog_growth_is_flagged_only_at_the_end():
    assert not loadgen.backlog_growing([0, 1, 0, 2, 1, 0, 1, 0] * 4)
    assert not loadgen.backlog_growing([0, 9, 12, 9, 3, 1, 0, 0] * 2)
    assert loadgen.backlog_growing(list(range(32)))


def test_failed_send_is_recorded_not_raised():
    async def send(connection, message):
        raise ConnectionResetError("gone")

    op = loadgen.Op("query", 0, 0)
    asyncio.run(loadgen.closed_loop(send, [None], [op]))
    assert op.error == "ConnectionResetError: gone"


# ---------------------------------------------------------------------- #
# leak guard
# ---------------------------------------------------------------------- #
def test_leak_guard_kills_and_counts_a_leaked_child():
    leak_guard = guard.LeakGuard(grace_seconds=0.2)
    assert leak_guard.sweep().count == 0
    child = subprocess.Popen(["sleep", "60"], env=leak_guard.env())
    try:
        assert guard.tagged_pids(leak_guard.tag) == [child.pid]
        report = leak_guard.sweep()
        assert report.processes == [child.pid] and report.count == 1
        assert child.wait(timeout=5) == -9
        assert guard.tagged_pids(leak_guard.tag) == []
    finally:
        child.kill()
        child.wait()


# ---------------------------------------------------------------------- #
# BENCHMARK.json agrees with what run.py emits
# ---------------------------------------------------------------------- #
def test_benchmark_json_names_what_the_spine_emits():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/spine"]
    assert contract["command"] == ["python3", "benchmarks/spine/run.py"]
    assert contract["run_seconds"] == spec.BASE_SECONDS
    assert [w["name"] for w in contract["workloads"]] == list(spec.WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == list(spec.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == list(spec.PER_LAYER)
    setup = contract["end_to_end"][0]
    assert setup["name"] == "setup_s"
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"]) <= 0.25
