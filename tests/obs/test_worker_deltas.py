"""Worker-side metrics deltas ship to the master exactly.

The packed-step kernels count sources/groups/handle-bytes as pure functions
of their inputs, so a sharded run (deltas piggybacked on shard-task replies
and absorbed master-side) must land on exactly the totals a serial in-process
run records — the same exactness contract the ``Network.absorb()`` tests
enforce for communication counters.

The executor matrix honours ``REPRO_TEST_EXECUTORS`` (comma-separated subset
of ``serial,processes,tcp``).
"""

import os

import pytest

from repro.api import DSRConfig, ReachQuery, open_engine
from repro.cluster.executors import StaleEpochError
from repro.graph import generators
from repro.graph.traversal import reachable_pairs
from repro.obs import use_registry

EXECUTORS = tuple(
    name.strip()
    for name in os.environ.get(
        "REPRO_TEST_EXECUTORS", "serial,processes,tcp"
    ).split(",")
    if name.strip()
)

#: Counters recorded inside the step kernels — deterministic given the graph,
#: partitioning and query batch, wherever the kernel runs.
STEP_COUNTERS = (
    ("dsr_step_sources_total", {"step": "local"}),
    ("dsr_step_sources_total", {"step": "remote"}),
    ("dsr_step_groups_total", {"step": "local"}),
    ("dsr_step_groups_total", {"step": "remote"}),
    ("dsr_step_handle_bytes_total", {"step": "local"}),
)


def _graph():
    return generators.social_graph(140, avg_degree=5, seed=4)


def _queries():
    return [
        ReachQuery(tuple(range(start, start + 4)), tuple(range(60 + start, 66 + start)))
        for start in (0, 8, 16)
    ]


def _run_workload(executor):
    """Run the fixed workload; return (answers, totals, stale retries)."""
    with use_registry() as registry:
        engine = open_engine(
            _graph(),
            DSRConfig(num_partitions=3, local_index="msbfs", executor=executor),
        )
        try:
            answers = [frozenset(engine.run(query).pairs) for query in _queries()]
        finally:
            engine.close()
        totals = {
            (name, tuple(sorted(labels.items()))): registry.counter_value(
                name, **labels
            )
            for name, labels in STEP_COUNTERS
        }
        stale_retries = registry.counter_value("dsr_query_stale_retries_total")
    return answers, totals, stale_retries


class TestDeltaExactness:
    @pytest.mark.parametrize("executor", [e for e in EXECUTORS if e != "serial"])
    def test_sharded_totals_equal_serial_totals(self, executor):
        serial_answers, serial_totals, _ = _run_workload("serial")
        sharded_answers, sharded_totals, sharded_stale = _run_workload(executor)
        assert sharded_answers == serial_answers
        # No stale retry fired (nothing flushed), so the counts must agree
        # to the last unit — any drift means a delta was lost or doubled.
        assert sharded_stale == 0
        assert sharded_totals == serial_totals

    def test_serial_workload_actually_records(self):
        _, totals, _ = _run_workload("serial")
        assert totals[("dsr_step_sources_total", (("step", "local"),))] > 0
        assert totals[("dsr_step_groups_total", (("step", "local"),))] > 0
        assert totals[("dsr_step_handle_bytes_total", (("step", "local"),))] > 0


@pytest.mark.skipif("processes" not in EXECUTORS, reason="processes executor excluded")
class TestProcessesObservability:
    def test_shard_task_counters_reach_the_master(self):
        with use_registry() as registry:
            engine = open_engine(
                _graph(), DSRConfig(num_partitions=3, executor="processes")
            )
            try:
                engine.run(ReachQuery((0, 1, 2), (70, 71)))
            finally:
                engine.close()
            # These are recorded *inside the worker processes* and can only
            # appear here via the piggybacked deltas.
            assert registry.counter_total("dsr_shard_tasks_total") > 0
            assert registry.histogram_count(
                "dsr_shard_task_seconds", task="dsr.local_step"
            ) > 0
            assert registry.counter_total("dsr_shard_hydrations_total") > 0

    def test_traced_bits_query_has_per_partition_spans(self):
        """The acceptance scenario: executor="processes", trace=True →
        per-partition shard spans and payload bytes."""
        engine = open_engine(
            _graph(), DSRConfig(num_partitions=3, executor="processes")
        )
        try:
            result = engine.run(
                ReachQuery((0, 1, 2, 3), (60, 61, 62, 63, 64, 65), trace=True)
            )
        finally:
            engine.close()
        trace = result.trace
        assert trace.attrs["sharded"] is True
        step1 = trace.find("step1")
        assert step1.attrs["sharded"] is True
        assert step1.attrs["payload_bytes"] > 0
        shard_spans = [s for s in trace.spans if s.name == "step1.shard"]
        assert len(shard_spans) == step1.attrs["partitions"] >= 2
        assert {span.attrs["partition"] for span in shard_spans} == {
            span.attrs["partition"] for span in shard_spans
        }
        assert all(span.seconds >= 0.0 for span in shard_spans)
        bridge = trace.find("step2_bridge")
        assert bridge is not None and "payload_bytes" in bridge.attrs


class TestStaleRetryCounter:
    def test_stale_epoch_retry_is_counted_and_traced(self, monkeypatch):
        graph = generators.social_graph(80, avg_degree=4, seed=2)
        with use_registry() as registry:
            engine = open_engine(graph, DSRConfig(num_partitions=2))
            try:
                executor = engine._executor
                real_execute = executor._execute
                calls = {"n": 0}

                def flaky_execute(*args, **kwargs):
                    if calls["n"] == 0:
                        calls["n"] += 1
                        raise StaleEpochError(0, 99, (0,))
                    return real_execute(*args, **kwargs)

                monkeypatch.setattr(executor, "_execute", flaky_execute)
                result = engine.run(ReachQuery((0, 1), (30, 31), trace=True))
            finally:
                engine.close()
            assert registry.counter_value("dsr_query_stale_retries_total") == 1
        retry = result.trace.find("stale_epoch_retry")
        assert retry is not None
        assert result.pairs == reachable_pairs(graph, [0, 1], [30, 31])
