"""Figure 7 — Comparison of local reachability indexes inside DSR.

Paper setup: LiveJ-68M and Freebase-1B, query sizes 10x10, 100x100 and 1kx1k,
DSR combined with plain DFS, FERRARI and MS-BFS as the local search strategy
(all over SCC-condensed compound graphs).  Here: the livej68 and freebase
analogues and the benchmark spine's DAG rig, 4 metis partitions, five
random queries per size 8x8, 32x32 and 128x128.

The DSR engine runs one local kernel, the bitset one-pass sweep over each
condensed compound graph (:func:`repro.core.packed_steps.condensation_rows`),
so the strategy is not an engine setting.  This harness reproduces the
comparison over exactly what that kernel sweeps.  It opens one engine, runs
each query once and records every kernel call the query makes (steps 1 and
3): the published condensation, the sources' components and the target
components of the call's mask.  Every call is then replayed through each
``repro.reachability`` strategy's ``set_reachability`` over the same
condensation, and through the kernel itself.

Expected shape (asserted): every strategy answers every call exactly as the
kernel does, and for the largest query the shared-traversal strategy
(MS-BFS) does not lose badly to per-source DFS — the paper's observation is
that DFS is the slowest for large query sets.  Printed: the median local
evaluation time per query, per strategy and size, and each strategy's build
time over the published condensations.
"""

import statistics
import time

import pytest

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, run_once
from repro.api import DSRConfig, ReachQuery, open_engine
from repro.bench.datasets import load_dataset
from repro.bench.reporting import format_series, format_table
from repro.bench.workloads import random_query
from repro.graph import generators
from repro.reachability import bitset_msbfs, make_reachability_index
from repro.reachability.packed import VertexRank, iter_bits

GRAPHS = {
    "livej68": lambda: load_dataset("livej68", scale=BENCH_SCALE, seed=BENCH_SEED),
    "freebase": lambda: load_dataset("freebase", scale=BENCH_SCALE, seed=BENCH_SEED),
    # The benchmark spine's DAG rig: every compound graph holds more
    # vertices than the whole data graph, so the sweeps are wide.
    "dag": lambda: generators.dag(2000, 8000, seed=BENCH_SEED),
}
#: The spine's point and batch set sizes, and one between.
QUERY_SIZES = [8, 32, 128]
QUERIES_PER_SIZE = 5
STRATEGIES = ["dfs", "ferrari", "grail", "closure", "msbfs"]
NUM_SLAVES = 4


def record_kernel_calls(engine, sources, targets):
    """``(condensation, component sources, target components)`` per kernel call.

    Runs one forward query with each compound graph's
    ``local_set_reachability_rows`` wrapped per instance.  Calls the kernel
    never sweeps (no known source, an empty mask) are left out; ``None``
    targets mean every component.
    """
    calls = []
    compounds = list(engine.index.compound_graphs.values())
    for compound in compounds:

        def record(call_sources, mask=None, view=None, compound=compound):
            call_sources = list(call_sources)
            view = view if view is not None else compound.condensation_view()
            components = sorted(
                {
                    view.vertex_to_component[source]
                    for source in call_sources
                    if source in view.vertex_to_component
                }
            )
            if components and mask != 0:
                dag_mask = None if mask is None else view.expansion.scatter(mask)
                calls.append((view.dag, components, dag_mask))
            return type(compound).local_set_reachability_rows(
                compound, call_sources, mask, view
            )

        compound.local_set_reachability_rows = record
    try:
        engine.run(ReachQuery(tuple(sources), tuple(targets), direction="forward"))
    finally:
        for compound in compounds:
            del compound.local_set_reachability_rows
    return calls


def build_strategies(engine, strategies):
    """Every strategy's index over every published condensation, timed.

    Returns ``(indexes, build_seconds)``: ``indexes[name][id(dag)]`` and,
    per strategy, the seconds its indexes took to build.
    """
    dags = [
        compound.condensation_view().dag
        for compound in engine.index.compound_graphs.values()
    ]
    indexes = {name: {} for name in strategies}
    build_seconds = {}
    for name in strategies:
        start = time.perf_counter()
        for dag in dags:
            indexes[name][id(dag)] = make_reachability_index(name, dag)
        build_seconds[name] = time.perf_counter() - start
    return indexes, build_seconds


def replay_strategies(calls, indexes):
    """Replay kernel calls through every strategy; return the seconds spent.

    Per strategy (and the ``"kernel"`` itself), the time its
    ``set_reachability`` took over all calls.  Asserts that every
    strategy's answer equals the kernel's rows on every call.
    """
    seconds = {name: 0.0 for name in ["kernel", *indexes]}
    for dag, components, dag_mask in calls:
        start = time.perf_counter()
        rows = bitset_msbfs.set_reachability_rows(dag, components, dag_mask)
        seconds["kernel"] += time.perf_counter() - start
        # A condensation's ids are its dense indices, so a DAG mask's bits
        # are component ids.
        rank = VertexRank.from_csr(dag)
        targets = rank.ids if dag_mask is None else list(iter_bits(dag_mask))
        for name, per_dag in indexes.items():
            start = time.perf_counter()
            sets = per_dag[id(dag)].set_reachability(components, targets)
            seconds[name] += time.perf_counter() - start
            assert {c: rank.pack(reached) for c, reached in sets.items()} == rows, name
    return seconds


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_local_reachability_strategies(benchmark, name):
    graph = GRAPHS[name]()
    engine = open_engine(graph, DSRConfig(num_partitions=NUM_SLAVES, seed=BENCH_SEED))

    def run_sweep():
        indexes, builds = build_strategies(engine, STRATEGIES)
        series = {strategy: [] for strategy in ["kernel", *STRATEGIES]}
        for size in QUERY_SIZES:
            per_query = {strategy: [] for strategy in series}
            for query in range(QUERIES_PER_SIZE):
                sources, targets = random_query(graph, size, size, seed=BENCH_SEED + query)
                calls = record_kernel_calls(engine, sources, targets)
                for strategy, seconds in replay_strategies(calls, indexes).items():
                    per_query[strategy].append(1000 * seconds)
            for strategy, samples in per_query.items():
                series[strategy].append(round(statistics.median(samples), 2))
        return series, builds

    series, builds = run_once(benchmark, run_sweep)
    print()
    print(
        format_series(
            series,
            x_values=[f"{s}x{s}" for s in QUERY_SIZES],
            x_label="|S|x|T|",
            title=f"Figure 7 — local evaluation ms per query (median of "
            f"{QUERIES_PER_SIZE}) on {name}'s condensations",
        )
    )
    print(
        format_table(
            [
                {"strategy": strategy, "build_ms": round(1000 * seconds, 2)}
                for strategy, seconds in builds.items()
            ],
            title=f"index build over {name}'s published condensations",
        )
    )
    # For the largest query the shared traversal must not be drastically
    # slower than per-source DFS (the paper shows it winning).
    assert series["msbfs"][-1] <= series["dfs"][-1] * 3 + 50
