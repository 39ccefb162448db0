"""CSR bitset-MSBFS kernel vs. legacy per-source BFS (batched set reachability).

The paper's per-partition work is a *batched* multi-source traversal; PR 3
replaced the dict/set walk with a compressed-sparse-row snapshot
(:mod:`repro.graph.csr`) plus an integer-bitset frontier kernel
(:mod:`repro.reachability.bitset_msbfs`).  This benchmark pits three
evaluations of the same ``W x W`` set-reachability query (``W >= 64``) on the
Fig-5-sized dataset analogues against each other:

* ``per-source`` — the legacy reference path: one early-terminating BFS per
  source over the ``dict``/``set`` adjacency
  (:func:`repro.graph.traversal.multi_source_reachability`);
* ``dict-msbfs`` — the pre-PR-3 shared-frontier MSBFS with per-vertex dict
  bitsets (re-implemented here verbatim as the historical baseline);
* ``csr-kernel`` — the CSR bitset kernel as
  :class:`~repro.reachability.msbfs.MultiSourceBFS` serves it (one sweep over
  the graph's condensation), measured both amortised (snapshot and
  condensation already cached, the steady-state serving case) and cold
  (snapshot build and condensation included, the first-query-after-update
  case).

Asserted: the kernel answers identically and is **>= 3x** faster than the
legacy per-source path on the batched query (the ISSUE-3 acceptance bar);
the printed table records the exact factors for the BENCH trajectory.
"""

import time
from typing import Dict, Set

import pytest

from benchmarks.conftest import BENCH_SCALE, BENCH_SEED, run_once
from repro.bench.datasets import load_dataset
from repro.bench.reporting import format_table
from repro.bench.workloads import random_query
from repro.graph.traversal import multi_source_reachability
from repro.reachability.msbfs import MultiSourceBFS

DATASETS = ["livej68", "twitter"]
NUM_SOURCES = 96  # the acceptance bar asks for W >= 64
NUM_TARGETS = 96
REPEATS = 5  # best-of-N to shave scheduler noise off the asserted ratio
MIN_SPEEDUP = 3.0


def _legacy_dict_msbfs(graph, sources, targets) -> Dict[int, Set[int]]:
    """The pre-PR-3 MultiSourceBFS batch: dict-of-bitsets over DiGraph sets."""
    target_set = set(targets)
    result: Dict[int, Set[int]] = {source: set() for source in sources}
    batch = [source for source in sources if graph.has_vertex(source)]
    bit_of = {source: 1 << position for position, source in enumerate(batch)}
    seen: Dict[int, int] = {}
    frontier: Dict[int, int] = {}
    for source in batch:
        seen[source] = seen.get(source, 0) | bit_of[source]
        frontier[source] = frontier.get(source, 0) | bit_of[source]
    while frontier:
        next_frontier: Dict[int, int] = {}
        for vertex, bits in frontier.items():
            for succ in graph.successors(vertex):
                new_bits = bits & ~seen.get(succ, 0)
                if new_bits:
                    seen[succ] = seen.get(succ, 0) | new_bits
                    next_frontier[succ] = next_frontier.get(succ, 0) | new_bits
        frontier = next_frontier
    for position, source in enumerate(batch):
        bit = 1 << position
        result[source] = {v for v in target_set if seen.get(v, 0) & bit}
    return result


def _best_of(repeats, fn):
    best, answer = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        answer = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None or elapsed < best else best
    return best, answer


@pytest.mark.parametrize("name", DATASETS)
def test_csr_kernel_speedup(benchmark, name):
    graph = load_dataset(name, scale=BENCH_SCALE, seed=BENCH_SEED)
    sources, targets = random_query(graph, NUM_SOURCES, NUM_TARGETS, seed=BENCH_SEED)

    def run_all():
        legacy_s, legacy_answer = _best_of(
            REPEATS, lambda: multi_source_reachability(graph, sources, targets)
        )
        dict_s, dict_answer = _best_of(
            REPEATS, lambda: _legacy_dict_msbfs(graph, sources, targets)
        )

        def cold_kernel():
            graph._invalidate_csr()
            return MultiSourceBFS(graph).set_reachability(sources, targets)

        cold_s, _ = _best_of(REPEATS, cold_kernel)
        # Steady state: snapshot and condensation cached until the next update.
        index = MultiSourceBFS(graph)
        kernel_s, kernel_answer = _best_of(
            REPEATS, lambda: index.set_reachability(sources, targets)
        )
        assert kernel_answer == legacy_answer == dict_answer
        return legacy_s, dict_s, cold_s, kernel_s

    legacy_s, dict_s, cold_s, kernel_s = run_once(benchmark, run_all)

    rows = [
        {"path": "per-source BFS (legacy)", "seconds": round(legacy_s, 5), "speedup": "1.0x"},
        {
            "path": "dict MSBFS (pre-PR3)",
            "seconds": round(dict_s, 5),
            "speedup": f"{legacy_s / dict_s:.1f}x",
        },
        {
            "path": "csr kernel (cold: +snapshot, condense)",
            "seconds": round(cold_s, 5),
            "speedup": f"{legacy_s / cold_s:.1f}x",
        },
        {
            "path": "csr kernel (amortised)",
            "seconds": round(kernel_s, 5),
            "speedup": f"{legacy_s / kernel_s:.1f}x",
        },
    ]
    print()
    print(
        format_table(
            rows,
            title=(
                f"CSR bitset kernel — {name} "
                f"(|S|=|T|={NUM_SOURCES}, |V|={graph.num_vertices}, "
                f"|E|={graph.num_edges})"
            ),
        )
    )

    # The ISSUE-3 acceptance bar: >= 3x over the legacy per-source path for a
    # W >= 64 batched set-reachability query on a Fig-5-sized graph.  The
    # kernel-vs-dict-MSBFS ratio is only ~1.15x, too tight to gate on without
    # flaking CI — the printed table records it instead.
    assert legacy_s / kernel_s >= MIN_SPEEDUP, (
        f"CSR kernel only {legacy_s / kernel_s:.2f}x faster than per-source BFS"
    )
