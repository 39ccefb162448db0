#!/usr/bin/env python3
"""Does the benchmark agree with itself?  Run it repeatedly on one tree.

    python3 benchmarks/spine/selfcheck.py                # two runs, default seed
    python3 benchmarks/spine/selfcheck.py --seed 11      # two runs, another seed
    python3 benchmarks/spine/selfcheck.py --seeds 10     # ten seeds per workload

Two-run mode prints, per workload x end-to-end metric, both values, how
much worse the second run is and PASS/FAIL against the metric's bound.
``--seeds N`` is the acceptance protocol of the harness: N runs, each with
another seed, and per metric the distance between the first and third
quartile as a share of the median, which must stay inside the bound (aim
for a third of it).  Exit status is non-zero on any FAIL or incorrect run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spinelib import spec  # noqa: E402

RUN_TIMEOUT_SECONDS = 180


def one_run(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """End-to-end metrics of one ``run.py`` invocation (raises if incorrect)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_SECONDS,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed}: run failed\n{done.stdout[-2000:]}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative = better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the harness's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seeds", type=int, default=0,
                        help="run this many consecutive seeds and report the spread")
    parser.add_argument("--seconds", type=float, default=float(spec.BASE_SECONDS))
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    seeds = (
        [args.seed + offset for offset in range(args.seeds)]
        if args.seeds else [args.seed, args.seed]
    )

    failed = False
    for workload in workloads:
        runs: List[Dict[str, float]] = []
        for seed in seeds:
            runs.append(one_run(workload, seed, args.seconds))
            print(f"# {workload} seed {seed}: " + " ".join(
                f"{name}={value:.4g}" for name, value in runs[-1].items()), flush=True)
        for name, unit, better, bound in spec.END_TO_END:
            values = [run[name] for run in runs]
            if args.seeds:
                measure, label = spread(values), "spread"
                # setup_s is exempt from the spread rule, not from reporting.
                verdict = "PASS" if measure <= bound or name == "setup_s" else "FAIL"
                shown = f"median {statistics.median(values):.4f}"
            else:
                measure, label = worse_by(values[0], values[1], better), "worse by"
                verdict = "PASS" if measure <= bound else "FAIL"
                shown = f"{values[0]:.4f} -> {values[1]:.4f}"
            failed |= verdict == "FAIL"
            print(f"{workload:<15} {name:<22} {shown:>24} {unit:<4} "
                  f"{label} {measure:+.3f} (bound {bound:.2f}) {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
