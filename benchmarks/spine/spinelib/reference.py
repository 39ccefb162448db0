"""A yardstick for the machine's speed, taken while the benchmark runs.

The reference box is a small shared VM whose speed wanders: a fixed piece of
pure-Python work that takes 0.40 ms in one run takes 0.34 ms in the next and
0.51 ms ten minutes later, and the median round trip of an identical run
moves with it.  No regression bound survives that on wall-clock
milliseconds, so the spine reports times in *reference milliseconds*: wall
time divided by how long the yardstick took at the same moment, times its
nominal duration.  On the reference box at its usual speed the two units
coincide; anywhere else a reference millisecond is "as long as two and a
half yardstick spins take here".

The yardstick is spun between the requests of the sequential phases (closed
loop at one connection, write cycles), where the server is idle and the
spin delays nobody, before every other slice, and around every set-up.  A
round trip is divided by the mean of the spins on either side of it; a
slice-level figure (capacity, open-loop latency) by the median spin of the
whole run, which the round-robin slices sample evenly.
"""

from __future__ import annotations

import time
from typing import List, Sequence

from spinelib.stats import median

#: The yardstick's duration on the reference box, by definition.
NOMINAL_SECONDS = 0.0004


def spin() -> int:
    """Fixed interpreter work: bytecode, small-int arithmetic, dict and set churn."""
    counts: dict = {}
    seen: set = set()
    total = 0
    for i in range(2000):
        key = (i * 2654435761) & 0xFFFF
        seen.add(key)
        counts[key] = counts.get(key, 0) + 1
        total += i * i & 7
    return total + len(seen) + len(counts)


class Yardstick:
    """Collects spin durations; ``scale()`` turns wall seconds into reference seconds."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.samples: List[float] = []
        self._clock = clock

    def tick(self) -> float:
        start = self._clock()
        spin()
        self.samples.append(self._clock() - start)
        return self.samples[-1]

    def ticks(self, count: int) -> None:
        for _ in range(count):
            self.tick()

    def scale(self) -> float:
        return scale_of(self.samples)


def scale_of(readings: Sequence[float]) -> float:
    """Factor from wall seconds to reference seconds, given yardstick readings."""
    return NOMINAL_SECONDS / median(readings)


def in_reference(values: Sequence[float], refs: Sequence[float]) -> List[float]:
    """Each wall duration in reference seconds, by its own yardstick reading."""
    return [value / ref * NOMINAL_SECONDS for value, ref in zip(values, refs)]
