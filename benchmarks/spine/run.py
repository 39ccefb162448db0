#!/usr/bin/env python3
"""The measurement spine: one command, every metric, every answer checked.

    python3 benchmarks/spine/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh interpreter (``python -m spinelib``) under
the leak guard.  Without ``--workload`` all four run; without ``--trace``
each runs twice, untraced (end-to-end metrics) then traced (per-layer
metrics).  Every metric is printed as ``workload  name  value unit``; the
last line of output is one JSON object ``{correct, attempted, failed,
metrics}``.  Exit status is non-zero on a wrong answer, a failed or refused
operation, an invalid open-loop phase or a leaked process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"spine: the program under test is missing: {SRC / 'repro'}")
sys.path[:0] = [str(HERE), str(SRC)]

from spinelib import spec  # noqa: E402
from spinelib.guard import LeakGuard  # noqa: E402

#: The harness allows a run 180 s; leave room to sweep and report.
WORKER_TIMEOUT_SECONDS = 165


def fingerprint() -> Dict[str, Any]:
    """Where the numbers came from: interpreter, cores, kernels, commit."""
    from repro.reachability.kernels import kernel_backend

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernels": kernel_backend(),
        "commit": commit,
    }


def run_worker(guard: LeakGuard, workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One blocking child interpreter; always followed by a leak sweep."""
    command = [
        sys.executable, "-m", "spinelib",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--trace-out", str(HERE / "out" / f"trace_{workload}.json"),
    ]
    env = guard.env(
        PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]),
        # str hashes feed set/dict orders inside the program; pin them so a
        # seed names one execution, not a family of them.
        PYTHONHASHSEED="0",
    )
    before = guard.report.count
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_SECONDS,
            text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited with status {done.returncode}")
        result = json.loads(lines[-1])
    finally:
        guard.sweep()
    result["leaked"] = guard.report.count - before
    return result


def show(workload: str, entries: Dict[str, Dict[str, Any]]) -> None:
    for name, entry in entries.items():
        extra = "".join(
            f"  {key}={entry[key]}" for key in ("n", "percentile") if key in entry
        )
        print(f"{workload:<15} {name:<40} {entry['value']:>14.4f} {entry['unit']}{extra}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec.BASE_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")

    def terminate(signum, frame) -> None:
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)

    workloads = [args.workload] if args.workload else list(spec.WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    print(f"fingerprint {json.dumps(fingerprint())} seed={args.seed} seconds={args.seconds:g}")

    guard = LeakGuard()
    metrics: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    problems: List[str] = []
    try:
        for workload in workloads:
            for trace in traces:
                result = run_worker(guard, workload, args.seed, args.seconds, trace)
                if trace:
                    result["metrics"]["spine.leaked_processes"] = {
                        "value": float(result["leaked"]), "unit": "count",
                    }
                show(workload, result["metrics"])
                show(workload, result.get("detail", {}))
                attempted += result["attempted"]
                failed += result["failed"]
                for line in result["failures"]:
                    problems.append(f"{workload}: {line}")
                for line in result["invalid"]:
                    problems.append(f"{workload}: invalid phase: {line}")
                if result["active_children"]:
                    problems.append(f"{workload}: {result['active_children']} active children at exit")
                prefix = "" if args.workload else f"{workload}/"
                for name, entry in result["metrics"].items():
                    metrics[prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    finally:
        leaks = guard.sweep()
        if leaks.count:
            print(f"spine.leaked_processes {leaks.count} {json.dumps(leaks.as_dict())}")
    for line in problems:
        print(f"FAIL {line}")
    correct = not problems and not leaks.count
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
