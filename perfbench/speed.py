"""Host speed reference, for times that stay comparable while the host drifts.

On a shared virtual machine the speed of the same code drifts with the load
of other tenants: on a 2-vCPU Xeon virtual machine the same operations ran
up to 2 times slower, in phases that lasted from under a second to minutes.
A fixed interpreter kernel that does not use the program is timed right
before every measured operation and once after the last; each measured time
is scaled by ``REFERENCE_S`` over the kernel time interpolated at the middle
of the measurement.  The result is in reference seconds: seconds on a host
where the kernel takes ``REFERENCE_S``.  Raw seconds are reported next to
them in the run summary.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0025
REPS = 3


def kernel():
    """Integer and dict work plus Fraction arithmetic, about 1 ms of each.

    Together they followed the host's slow phases more closely than either
    alone, or than kernels bound by memory access.
    """
    total = 0
    table = {}
    for i in range(10000):
        total += i * i % 7
        table[i & 255] = total
    acc = Fraction(0)
    for i in range(1, 170):
        acc += Fraction(i, 7) * Fraction(i, 7) - Fraction(1, 3)
    return total, acc


class SpeedLog:
    """Kernel times (fastest of ``REPS``) and when they were taken."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        best = float("inf")
        for _ in range(REPS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        self.at.append(time.perf_counter())
        self.seconds.append(best)

    def scale(self, start: float, end: float) -> float:
        """Factor from raw to reference seconds for a measurement from start to end.

        The kernel time is interpolated linearly between the samples around the
        measurement's midpoint, and held constant before the first and after the last.
        """
        mid = (start + end) / 2
        i = bisect.bisect_left(self.at, mid)
        if i == 0:
            kernel_s = self.seconds[0]
        elif i == len(self.at):
            kernel_s = self.seconds[-1]
        else:
            t0, t1 = self.at[i - 1], self.at[i]
            k0, k1 = self.seconds[i - 1], self.seconds[i]
            kernel_s = k0 + (k1 - k0) * (mid - t0) / (t1 - t0)
        return REFERENCE_S / kernel_s

    def run_scale(self) -> float:
        """One factor for a whole run: ``REFERENCE_S`` over the median kernel time."""
        return REFERENCE_S / statistics.median(self.seconds)

    def summary(self) -> dict[str, float]:
        return {
            "kernel_ms_median": statistics.median(self.seconds) * 1e3,
            "kernel_ms_min": min(self.seconds) * 1e3,
            "kernel_ms_max": max(self.seconds) * 1e3,
            "samples": len(self.seconds),
        }
