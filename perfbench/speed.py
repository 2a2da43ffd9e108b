"""Host-speed normalization of the paper-grid timings.

On a shared host the CPU's speed drifts by tens of percent from second
to second and from run to run (other tenants on the same cores), and
wall-clock timings of CPU-bound work drift with it.  The paper-grid
workload, pure single-threaded simulator work, drifts the most, so it
measures the host's speed while it works: a fixed unit of pure Python
calibration work, timed in thread CPU time after every simulated run on
the same thread, and wall times scaled to a reference speed::

    normalized = wall * REFERENCE_UNIT_S / (mean unit CPU time nearby)

A host running the unit in ``REFERENCE_UNIT_S`` reports unscaled wall
times; a host running slower reports correspondingly shorter
normalized times.  Raw wall-clock values are reported beside the
normalized ones.
"""

from __future__ import annotations

import bisect
import time
from statistics import fmean

#: CPU seconds one calibration unit takes on the reference host
REFERENCE_UNIT_S = 0.5e-3


class _Particle:
    __slots__ = ("x", "v")

    def __init__(self, x: float, v: float) -> None:
        self.x = x
        self.v = v

    def step(self, dt: float) -> float:
        self.x += self.v * dt
        return self.x


def calibration_unit() -> float:
    """Fixed interpreter work: calls, attributes, floats, lists, dicts."""
    parts = [_Particle(float(i), 0.5 + i % 3) for i in range(40)]
    seen: dict[int, float] = {}
    queue: list[float] = []
    total = 0.0
    for step in range(30):
        for p in parts:
            x = p.step(0.01)
            seen[step ^ int(x) & 31] = x
            queue.append(x)
        while len(queue) > 64:
            total += queue.pop(0)
    return total + sum(seen.values())


def measure_unit() -> float:
    """Thread CPU seconds of one calibration unit on the calling thread."""
    start = time.thread_time()
    calibration_unit()
    return time.thread_time() - start


class SpeedSamples:
    """(wall time, unit CPU seconds) samples, in time order."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.unit_s: list[float] = []

    def sample(self) -> None:
        unit = measure_unit()
        self.at.append(time.perf_counter())
        self.unit_s.append(unit)

    def factor(self, start: float, end: float, margin: float = 0.25) -> float:
        """Scale for a wall interval: reference / mean unit time around it."""
        lo = bisect.bisect_left(self.at, start - margin)
        hi = bisect.bisect_right(self.at, end + margin)
        window = self.unit_s[lo:hi]
        if not window:
            # no sample that close: fall back to the nearest ones
            window = self.unit_s[max(0, lo - 2):lo + 2]
        if not window:
            raise RuntimeError("no host-speed samples were taken")
        return REFERENCE_UNIT_S / fmean(window)
