"""Host-speed yardstick: a fixed computation timed between ops.

On a shared host the CPU's speed drifts by up to 1.5x over minutes with
other tenants' load, and every wall time in a run moves with it.  CPU time
moves the same way, so it is no remedy.  The harness times this fixed
computation in a window on each side of every op, sized to a share of the
op's own time, and divides the op's wall time by the mean chunk time over
the two windows.  The quotient is the op's cost in yardstick units ("ref"):
it moves when the program does more or less work, and much less when the
host slows down.

The chunk mixes a pure-Python Sturm pivot recurrence, like the spectral
layer's inner loop, with a numpy pass over an array larger than the L2
cache, which feels memory contention as the integrator and the Newton
stage do.  Timed next to single `integrate`, `negative_count` and
`find_solution` calls on a 2-CPU cloud VM over three minutes, in 10-second
windows, mixing the two cut the windows' coefficient of variation from
0.10-0.15 (raw seconds) to about 0.05.  The Python loop alone tracked
`integrate` worst (0.08); the numpy pass alone tracked `negative_count` a
little worse than the loop did (0.05 against 0.03).
"""

from __future__ import annotations

import math
import time

import numpy as np

_DIAG = [2.0 + 0.5 * math.sin(0.37 * i) for i in range(20000)]
_X = np.linspace(0.0, 1.0, 200000)
MIN_CHUNKS = 5


def chunk() -> float:
    """The fixed computation: about 6 ms on a 2-CPU cloud VM."""
    piv, count = 1.0, 0
    for a in _DIAG:
        piv = a - 0.25 / piv
        if piv < 0:
            count += 1
    return count + float(np.sum(np.sin(_X) * np.cos(_X)))


def _window(seconds: float) -> tuple:
    """Chunks for at least `seconds` and MIN_CHUNKS: (total time, chunks)."""
    total, n = 0.0, 0
    while n < MIN_CHUNKS or total < seconds:
        t = time.perf_counter()
        chunk()
        total += time.perf_counter() - t
        n += 1
    return total, n


class Yardstick:
    def __init__(self, share: float):
        self.share = share
        self.seconds = 0.0
        self._before = self._timed_window(0.0)

    def _timed_window(self, seconds: float) -> tuple:
        total, n = _window(seconds)
        self.seconds += total
        return total, n

    def after(self, op_seconds: float) -> float:
        """Call right after an op is timed: runs the window after it and
        returns the mean chunk time over the windows on both sides."""
        after = self._timed_window(self.share * op_seconds)
        ref = (self._before[0] + after[0]) / (self._before[1] + after[1])
        self._before = after
        return ref
