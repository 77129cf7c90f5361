"""Timing at a reference machine speed, for hosts whose speed drifts.

On a shared host the speed of one core can change by a factor of almost two
within seconds, as neighbours come and go; wall-clock times of the same work
then spread far more between runs than any change worth measuring.  A
:class:`RefClock` runs a fixed exact-rational kernel (stdlib ``Fraction``
only, never library code, so no library change can alter it) every quarter
second between operations.  Its mean duration over a phase says how fast the
machine was during that phase, and :meth:`RefClock.factor` rescales the
phase's wall times to what they would be on a machine where the kernel takes
``NOMINAL_S``.  (Scaling each operation by the kernel runs next to it instead
spread the results more: one kernel run is too short to read the speed
well.)  The kernel's own time is benchmark overhead and is excluded.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Kernel duration the reported times are scaled to: about its duration on
# the machine where the baseline was recorded, so scaled times read close to
# wall-clock times there.
NOMINAL_S = 0.004
INTERVAL_S = 0.25

_POINTS = tuple((Fraction(3 * i + 1, 7 * i + 5) ** 3, Fraction(5 * i + 2, 11 * i + 3) ** 3)
                for i in range(24))


def kernel(rounds: int = 6) -> int:
    """orient2d-style determinant signs over fixed rational points."""
    acc = 0
    pts = _POINTS
    for _ in range(rounds):
        for i in range(len(pts) - 2):
            (ax, ay), (bx, by), (cx, cy) = pts[i], pts[i + 1], pts[i + 2]
            det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            acc += (det > 0) - (det < 0)
    return acc


class RefClock:
    def __init__(self):
        self.bursts: list[float] = []      # kernel durations
        self.overhead_s = 0.0
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Time the kernel once if a quarter second has passed since the last time."""
        start = time.perf_counter()
        if not force and start - self._last < INTERVAL_S:
            return
        kernel()
        end = time.perf_counter()
        self.bursts.append(end - start)
        self.overhead_s += end - start
        self._last = end

    def factor(self) -> float:
        """Reference seconds per wall second over the ticks so far."""
        return NOMINAL_S / statistics.mean(self.bursts)
