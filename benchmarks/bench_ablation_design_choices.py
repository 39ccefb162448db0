"""Ablation benchmarks for the design choices called out in DESIGN.md.

Not a table/figure of the paper, but the knobs a practitioner would tune:

* number of partitions per fixed graph (index size vs. query cost trade-off);
* the local strategy, replayed over the engine's condensations;
* SCC condensation of the compound graphs on/off is implicit in Table 2, so
  here we measure the query-time effect of the condensation indirectly via
  dense vs. sparse graphs.
"""

from benchmarks.bench_fig7_local_indexes import (
    build_strategies,
    record_kernel_calls,
    replay_strategies,
)
from benchmarks.conftest import BENCH_SEED, run_once
from repro.bench.datasets import load_dataset
from repro.bench.reporting import format_series, format_table
from repro.bench.workloads import random_query
from repro.api import DSRConfig, ReachQuery, open_engine

SCALE = 0.4


def test_partition_count_ablation(benchmark):
    """More partitions → smaller local graphs but more boundary handles."""
    graph = load_dataset("livej68", scale=SCALE, seed=BENCH_SEED)
    sources, targets = random_query(graph, 10, 10, seed=BENCH_SEED)
    counts = [2, 4, 8, 12]

    def sweep():
        rows = []
        answers = set()
        for slaves in counts:
            engine = open_engine(
                graph,
                DSRConfig(num_partitions=slaves, local_index="msbfs", seed=BENCH_SEED),
            )
            report = engine.last_build_report
            result = engine.run(ReachQuery(tuple(sources), tuple(targets)))
            answers.add(frozenset(result.pairs))
            forward, backward = engine.index.total_boundary_entries()
            rows.append(
                {
                    "slaves": slaves,
                    "build_s": round(report.parallel_build_seconds, 3),
                    "query_s": round(result.parallel_seconds, 4),
                    "cut_edges": engine.partitioning.cut_size(),
                    "forward_handles": forward,
                    "backward_handles": backward,
                }
            )
        assert len(answers) == 1  # the partition count never changes answers
        return rows

    rows = run_once(benchmark, sweep)
    print()
    print(format_table(rows, title="Ablation — number of partitions (livej68 analogue)"))
    # The cut (and hence the handle count) grows with the partition count.
    assert rows[-1]["cut_edges"] >= rows[0]["cut_edges"]


def test_local_strategy_query_ablation(benchmark):
    """Local strategies over one engine's condensations on a dense analogue.

    The engine runs one kernel; each strategy replays the kernel calls of
    one query over the published condensations (the Fig. 7 harness) and
    must answer every call as the kernel does.
    """
    graph = load_dataset("twitter", scale=SCALE, seed=BENCH_SEED)
    sources, targets = random_query(graph, 25, 25, seed=BENCH_SEED)
    engine = open_engine(graph, DSRConfig(num_partitions=5, seed=BENCH_SEED))
    strategies = ["dfs", "msbfs", "ferrari"]

    def sweep():
        indexes, _ = build_strategies(engine, strategies)
        calls = record_kernel_calls(engine, sources, targets)
        return {
            strategy: [round(1000 * seconds, 3)]
            for strategy, seconds in replay_strategies(calls, indexes).items()
        }

    series = run_once(benchmark, sweep)
    print()
    print(
        format_series(
            series, x_values=["25x25"], x_label="|S|x|T|",
            title="Ablation — local evaluation ms per strategy on twitter analogue",
        )
    )
