"""Zero-copy shm epoch publish vs. pickled hydration + numpy kernel speedup.

PR 8 moved the per-partition CSR shard payloads out of the worker pipes and
into ``multiprocessing.shared_memory`` segments: an epoch publish now writes
each shard image once and ships only the segment *name*; workers attach and
wrap the bytes zero-copy (``CSRGraph.from_shared``).  This benchmark
quantifies the two claims behind the change on an 8-partition engine:

* **publish bytes** — what actually crosses the master→worker pipes per
  epoch (the ``dsr_epoch_publish_bytes`` gauge).  In shm mode the blobs are
  name-only husks; the acceptance bar is **<= 10%** of the pickled baseline
  (``REPRO_SHM=0``), and in practice it is well under 1%.
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

All measurements are merged into ``BENCH_shm_kernels.json``.
"""

import random
import sys
import time
from pathlib import Path

import pytest

from benchmarks.conftest import BENCH_SEED, run_once
from repro.api import DSRConfig, ReachQuery, open_engine
from repro.bench.datasets import load_dataset
from repro.bench.reporting import format_table, write_bench_json
from repro.bench.workloads import random_query
from repro.cluster.shm import shm_available
from repro.graph import generators
from repro.graph.digraph import DiGraph
from repro.graph.scc import condense
from repro.graph.traversal import reachable_pairs
from repro.obs.runtime import global_registry
from repro.reachability import bitset_msbfs

REPO_ROOT = Path(__file__).resolve().parent.parent

DATASET = "livej68"
SCALE = 0.6
NUM_PARTITIONS = 8  # the ISSUE-8 acceptance bar is stated at 8 partitions
PUBLISH_BYTES_MAX_FRACTION = 0.10
KERNEL_SOURCES = 256
KERNEL_REPEATS = 5
MIN_KERNEL_SPEEDUP = 2.0
ONEPASS_SOURCES = (2, 64, 256)
ONEPASS_REPEATS = 15
SPINE_DAG = "dag_2000_8000"


def _publish_stats(graph):
    """Build an 8-partition processes engine; return its epoch-0 publish
    stats (pipe bytes, shm attaches, build seconds) and close it."""
    registry = global_registry()
    registry.reset()
    start = time.perf_counter()
    engine = open_engine(
        graph.copy(),
        DSRConfig(
            num_partitions=NUM_PARTITIONS,
            local_index="msbfs",
            executor="processes",
            seed=BENCH_SEED,
        ),
    )
    build_seconds = time.perf_counter() - start
    try:
        # Sanity: the engine actually serves through the measured publish.
        sources, targets = random_query(graph, 16, 16, seed=BENCH_SEED)
        engine.run(ReachQuery(tuple(sources), tuple(targets)))
        return {
            "publish_bytes": registry.gauge_value("dsr_epoch_publish_bytes"),
            "shm_attaches": registry.counter_total("dsr_shard_shm_attach_total"),
            "build_seconds": build_seconds,
        }
    finally:
        engine.close()


@pytest.mark.skipif(not shm_available(), reason="shared memory unavailable")
def test_epoch_publish_shm_vs_pickled(benchmark, monkeypatch):
    graph = load_dataset(DATASET, scale=SCALE, seed=BENCH_SEED)
    registry = global_registry()
    was_enabled = registry.enabled
    registry.enabled = True
    try:

        def run_both():
            monkeypatch.setenv("REPRO_SHM", "0")
            pickled = _publish_stats(graph)
            monkeypatch.setenv("REPRO_SHM", "1")
            shared = _publish_stats(graph)
            return pickled, shared

        pickled, shared = run_once(benchmark, run_both)
    finally:
        registry.enabled = was_enabled
        registry.reset()

    fraction = shared["publish_bytes"] / pickled["publish_bytes"]
    print()
    print(
        format_table(
            [
                {
                    "mode": "pickled (REPRO_SHM=0)",
                    "pipe_bytes": int(pickled["publish_bytes"]),
                    "shm_attaches": int(pickled["shm_attaches"]),
                    "build_s": round(pickled["build_seconds"], 3),
                },
                {
                    "mode": "shm (attach-by-name)",
                    "pipe_bytes": int(shared["publish_bytes"]),
                    "shm_attaches": int(shared["shm_attaches"]),
                    "build_s": round(shared["build_seconds"], 3),
                },
            ],
            title=(
                f"Epoch publish — {DATASET} (scale {SCALE}, "
                f"{NUM_PARTITIONS} partitions, processes executor)"
            ),
        )
    )
    print(f"pipe-bytes fraction: {fraction:.4f} (bar {PUBLISH_BYTES_MAX_FRACTION})")

    write_bench_json(
        "shm_kernels",
        {
            "shm_publish": {
                "num_partitions": NUM_PARTITIONS,
                "pickled_publish_bytes": int(pickled["publish_bytes"]),
                "shm_publish_bytes": int(shared["publish_bytes"]),
                "publish_bytes_fraction": round(fraction, 5),
                "shm_attach_total": int(shared["shm_attaches"]),
            }
        },
        directory=REPO_ROOT,
        merge=True,
    )

    # Attach-by-name really happened: every partition was hydrated via a
    # named segment, none via pickled CSR bytes.
    assert shared["shm_attaches"] >= NUM_PARTITIONS
    assert pickled["shm_attaches"] == 0
    assert fraction <= PUBLISH_BYTES_MAX_FRACTION, (
        f"shm publish still ships {fraction:.2%} of the pickled bytes "
        f"(bar {PUBLISH_BYTES_MAX_FRACTION:.0%})"
    )


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
