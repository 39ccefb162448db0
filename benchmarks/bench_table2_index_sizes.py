"""Table 2 — Index sizes for DSR variants.

Paper columns: per-slave compound-graph size before ("Original") and after
("DAG") SCC condensation, total byte size, and the dependency-graph sizes that
DSR-Fan (one graph per query) and DSR-Naïve (one graph per pair) build.

Expected shape (asserted): SCC condensation shrinks the compound graphs of
highly connected graphs (twitter/livej analogues) far more than of the almost
acyclic LUBM analogue, and the dynamic dependency graphs of DSR-Fan are built
per query rather than precomputed.
"""

import pytest

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, run_once
from repro.bench.datasets import load_dataset
from repro.bench.reporting import format_table
from repro.bench.workloads import random_query
from repro.core.fan import DSRFan
from repro.core.index import DSRIndex
from repro.core.naive import DSRNaive
from repro.partition.partition import make_partitioning

DATASETS = ["amazon", "berkstan", "google", "notredame", "stanford", "livej20",
            "livej68", "twitter", "freebase", "lubm"]
NUM_SLAVES = 5

_rows = []


def _setting(name):
    graph = load_dataset(name, scale=BENCH_SCALE, seed=BENCH_SEED)
    partitioning = make_partitioning(graph, NUM_SLAVES, strategy="metis", seed=BENCH_SEED)
    return graph, partitioning


@pytest.mark.parametrize("name", DATASETS)
def test_dsr_compound_graph_sizes(benchmark, name):
    """Build the DSR index and record compound-graph sizes (paper: DSR columns)."""
    graph, partitioning = _setting(name)

    def build():
        index = DSRIndex(partitioning, use_equivalence=True)
        index.build()
        return index

    index = run_once(benchmark, build)
    report = index.build_report
    sources, targets = random_query(graph, 10, 10, seed=BENCH_SEED)
    fan = DSRFan(partitioning)
    fan.query(sources, targets)
    naive = DSRNaive(partitioning)
    naive.query(sources[:3], targets[:3])

    row = {
        "graph": name,
        "original_edges": report.max_original_edges,
        "dag_edges": report.max_dag_edges,
        "size_kb": round(report.total_bytes / 1024, 1),
        "fan_dep_edges": fan.last_dependency_edges,
        "naive_avg_dep_edges": round(naive.last_average_dependency_edges, 1),
    }
    _rows.append(row)
    print()
    print(format_table([row], title=f"Table 2 row — {name}"))

    # Shape assertions: condensation never grows the graph, and the dynamic
    # dependency graph is non-trivial for every query.
    assert report.max_dag_edges <= report.max_original_edges
    assert fan.last_dependency_edges > 0


def test_condensation_strongest_on_social_graphs(benchmark):
    """Twitter-like graphs condense much more than the LUBM-like analogue."""
    ratios = {}
    for name in ("twitter", "lubm"):
        _, partitioning = _setting(name)
        index = DSRIndex(partitioning, use_equivalence=True)
        index.build()
        report = index.build_report
        ratios[name] = report.max_dag_edges / max(1, report.max_original_edges)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print(f"\nTable 2 condensation ratio (DAG/original): {ratios}")
    assert ratios["twitter"] < ratios["lubm"]
