"""Ablation benchmarks for the design choices called out in DESIGN.md.

Not a table/figure of the paper, but the knobs a practitioner would tune:

* number of partitions per fixed graph (index size vs. query cost trade-off);
* the local strategy used at query time;
* SCC condensation of the compound graphs on/off is implicit in Table 2, so
  here we measure the query-time effect of the condensation indirectly via
  dense vs. sparse graphs.
"""

import time


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
    """Query-time effect of the pluggable local strategy on a dense analogue."""
    graph = load_dataset("twitter", scale=SCALE, seed=BENCH_SEED)
    sources, targets = random_query(graph, 25, 25, seed=BENCH_SEED)
    strategies = ["dfs", "msbfs", "ferrari"]

    def sweep():
        series = {}
        answers = set()
        for strategy in strategies:
            engine = open_engine(
                graph,
                DSRConfig(num_partitions=5, local_index=strategy, seed=BENCH_SEED),
            )
            start = time.perf_counter()
            pairs = engine.run(ReachQuery(tuple(sources), tuple(targets))).pairs
            series[strategy] = [round(time.perf_counter() - start, 4)]
            answers.add(frozenset(pairs))
        assert len(answers) == 1
        return series

    series = run_once(benchmark, sweep)
    print()
    print(
        format_series(
            series, x_values=["25x25"], x_label="|S|x|T|",
            title="Ablation — local strategy on twitter analogue",
        )
    )
