"""One workload in one fresh interpreter: ``python -m spinelib --workload ...``.

Prints one JSON object as its last line of output; ``run.py`` reads it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
from typing import Optional, Sequence

from spinelib import spec


def pin_to_one_cpu() -> None:
    """Run this interpreter, and every process it starts, on one CPU.

    Client, server and service threads share a GIL, so a second CPU buys
    them nothing but cross-CPU wake-ups; on a virtual machine those, and a
    GIL holder whose vCPU the host has descheduled, made identical runs
    differ by a factor of two.  On one CPU the same runs are faster and
    agree within a few percent (see the README).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _terminate(signum, frame) -> None:
    # Unwind through every finally so workers, threads and shm segments go.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="spinelib")
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    pin_to_one_cpu()

    workload = spec.WORKLOADS[args.workload].scaled(args.seconds)
    if args.trace:
        from spinelib.ladder import run_traced

        result = run_traced(workload, args.seed, args.trace_out)
    else:
        from spinelib.worker import run_untraced

        result = run_untraced(workload, args.seed)
    names = [row[0] for row in (spec.PER_LAYER if args.trace else spec.END_TO_END)]
    if list(result["metrics"]) != names:
        raise RuntimeError(f"emitted metrics {list(result['metrics'])} differ from spec {names}")
    children = multiprocessing.active_children()
    result["active_children"] = len(children)
    result["correct"] = not (result["failed"] or result["invalid"] or children)
    result["workload"] = args.workload
    result["seed"] = args.seed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
