"""numpy kernel speedup and one-pass sweeps on topologically numbered DAGs.

* **kernel speedup** — the numpy function vs. the python loop, each forced
  onto every sweep, on the same batched ``set_reachability_rows`` call over the
  measurement spine's ``dag(2000, 8000)`` condensation (the kernels sweep
  topologically numbered DAGs only), byte identical answers required,
  **>= 2x** required.  Both stay: a call picks one by its seed count
  (``bitset_msbfs.NUMPY_MIN_SEEDS``), and this comparison is what that
  crossover rests on.

* **one-pass sweeps** — ``test_onepass_sweep_on_condensation`` times the
  python loop and the numpy level plan on the dataset's condensation and on
  the spine's DAG at 2, 64 and 256 sources, forward and reverse; the two
  sides' rows must be identical and equal to ``reachable_pairs``.

All measurements are merged into ``BENCH_shm_kernels.json`` (the file keeps
the name of the benchmark it began as, which also compared a shared-memory
shard publish with the pickled one; that publish path is gone).
"""

import random
import sys
import time
from pathlib import Path

from benchmarks.conftest import BENCH_SEED, run_once
from repro.bench.datasets import load_dataset
from repro.bench.reporting import format_table, write_bench_json
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.scc import condense
from repro.graph.traversal import reachable_pairs
from repro.reachability import bitset_msbfs

REPO_ROOT = Path(__file__).resolve().parent.parent

DATASET = "livej68"
SCALE = 0.6
KERNEL_SOURCES = 256
KERNEL_REPEATS = 5
MIN_KERNEL_SPEEDUP = 2.0
ONEPASS_SOURCES = (2, 64, 256)
ONEPASS_REPEATS = 15
SPINE_DAG = "dag_2000_8000"


def _best_of(repeats, fn):
    best, answer = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        answer = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best, answer


def _rows_on(tier, csr, sources, reverse=False):
    """``set_reachability_rows`` with every sweep on one tier, at any width."""
    saved = bitset_msbfs.NUMPY_MIN_SEEDS
    bitset_msbfs.NUMPY_MIN_SEEDS = 0 if tier == "numpy" else sys.maxsize
    try:
        return bitset_msbfs.set_reachability_rows(csr, sources, reverse=reverse)
    finally:
        bitset_msbfs.NUMPY_MIN_SEEDS = saved


def test_numpy_kernel_speedup(benchmark):
    csr = _condensations()[SPINE_DAG]
    sources = random.Random(BENCH_SEED).sample(csr.ids, KERNEL_SOURCES)

    def run_both():
        python_s, python_rows = _best_of(
            KERNEL_REPEATS, lambda: _rows_on("python", csr, sources)
        )
        numpy_s, numpy_rows = _best_of(
            KERNEL_REPEATS, lambda: _rows_on("numpy", csr, sources)
        )
        assert numpy_rows == python_rows  # byte-identical ints
        return python_s, numpy_s

    python_s, numpy_s = run_once(benchmark, run_both)
    speedup = python_s / numpy_s

    print()
    print(
        format_table(
            [
                {"kernels": "python", "seconds": round(python_s, 5), "speedup": "1.0x"},
                {
                    "kernels": "numpy",
                    "seconds": round(numpy_s, 5),
                    "speedup": f"{speedup:.1f}x",
                },
            ],
            title=(
                f"set_reachability_rows — {SPINE_DAG} condensation, "
                f"|S|={KERNEL_SOURCES}, |V|={csr.num_vertices}, m={csr.num_edges}"
            ),
        )
    )

    write_bench_json(
        "shm_kernels",
        {
            "kernels": {
                "num_sources": KERNEL_SOURCES,
                "python_seconds": round(python_s, 6),
                "numpy_seconds": round(numpy_s, 6),
                "speedup": round(speedup, 3),
            }
        },
        directory=REPO_ROOT,
        merge=True,
    )

    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"numpy kernels only {speedup:.2f}x faster than python "
        f"(bar {MIN_KERNEL_SPEEDUP}x)"
    )


def _condensations():
    """``{name: condensation DAG}``: the dataset's and the spine's."""
    return {
        DATASET: condense(load_dataset(DATASET, scale=SCALE, seed=BENCH_SEED))[0],
        # benchmarks/spine: point_uncached / hot_skewed / batch_sharded.
        SPINE_DAG: condense(generators.dag(2000, 8000, seed=BENCH_SEED))[0],
    }


def _oracle_rows(csr, sources, reverse):
    """``reachable_pairs`` packed over the snapshot's dense numbering."""
    graph = DiGraph.from_edges(
        ((v, u) if reverse else (u, v) for u, v in csr.edges()), csr.vertices()
    )
    rows = {source: 0 for source in sources}
    for source, target in reachable_pairs(graph, set(sources), csr.ids):
        rows[source] |= 1 << csr.index_of(target)
    return rows


def test_onepass_sweep_on_condensation(benchmark):
    def run_all():
        report = {}
        for name, csr in _condensations().items():
            assert csr.edges_descend()
            entry = {"num_vertices": csr.num_vertices, "num_edges": csr.num_edges}
            for width in ONEPASS_SOURCES:
                sources = random.Random(BENCH_SEED).choices(csr.ids, k=width)
                for reverse in (False, True):
                    python_s, python_rows = _best_of(
                        ONEPASS_REPEATS, lambda: _rows_on("python", csr, sources, reverse)
                    )
                    assert python_rows == _oracle_rows(csr, sources, reverse)
                    plan_s, plan_rows = _best_of(
                        ONEPASS_REPEATS,
                        lambda: _rows_on("numpy", csr, sources, reverse),
                    )
                    assert plan_rows == python_rows  # byte-identical ints
                    direction = "reverse" if reverse else "forward"
                    entry[f"{direction}_sources_{width}"] = {
                        "python_onepass_seconds": round(python_s, 6),
                        "numpy_level_plan_seconds": round(plan_s, 6),
                    }
            report[name] = entry
        return report

    report = run_once(benchmark, run_all)
    print()
    print(
        format_table(
            [
                {"condensation": name, "|V|": entry["num_vertices"], "sweep": key,
                 **{k.replace("_seconds", "_ms"): round(v * 1e3, 3)
                    for k, v in timings.items()}}
                for name, entry in report.items()
                for key, timings in entry.items()
                if isinstance(timings, dict)
            ],
            title="set_reachability_rows on a condensation — python loop vs. numpy plan",
        )
    )
    write_bench_json("shm_kernels", {"onepass": report}, directory=REPO_ROOT, merge=True)
