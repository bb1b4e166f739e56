"""Machine-speed reference, measured alongside every timed run.

The shared 2-core container this benchmark was built on changes speed by
itself: the same pure-Python loop took 0.135–0.201 s from one second to the
next, and whole minutes ran about 1.5x faster or slower than others (CPU
time tracked wall time; no CPU steal was recorded).  Raw wall times of
identical inputs therefore spread by 25–50% across runs, far beyond any
useful regression bound.

So every timed run also times short *calibration slices* — a fixed piece of
pure-Python work (integer arithmetic, dict updates, heap operations, like
the solvers' inner loops) — at moments when the program is not running:
between solves, or, for the service, only while no request is in flight and
none is about to fall due (see :func:`service_load.drive`).  So no change to
the program's own work can slow the slices and scale itself away.  A
timing is scaled by ``REFERENCE_SLICE_S / local slice time``, where the
local slice time is the median of the slices nearest to it.  The reported
times are thus wall times expressed at the reference speed.  Over 6–8 identical ``heuristic`` runs that straddled fast and slow
phases, the spread (interquartile range over median) of throughput fell
from 0.26–0.41 unscaled to 0.04–0.06 scaled, and that of p50 and p90 from
0.27–0.44 to 0.02–0.07.  Garbage collection is off during a slice, so
garbage the program leaves behind cannot slow the slices and flatter the
program.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List

#: Slice time of the reference machine state (the usual state of the 2-core
#: x86 container the benchmark was built on).  Reported times are scaled to it.
REFERENCE_SLICE_S = 0.004

#: Slices on each side of a timing that its scale factor is the median of.
WINDOW = 4

#: Timed work between two slices (about 4% of a run goes to calibration).
CADENCE_S = 0.1


def slice_seconds() -> float:
    """Wall time of one calibration slice (about 4 ms at the reference speed)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        heap: List[tuple] = []
        seen: dict = {}
        x = 12345
        for i in range(4000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            key = (x & 1023, i & 7)
            seen[key] = seen.get(key, 0) + 1
            heapq.heappush(heap, (x & 0xFFFF, i))
            if len(heap) > 64:
                heapq.heappop(heap)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Calibration slices of one run, and the scale factors derived from them."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        for _ in range(WINDOW + 1):
            self.sample()

    def sample(self) -> None:
        self.samples.append(slice_seconds())

    def mark(self) -> int:
        """Index of the latest slice; pass it to :meth:`factor` later."""
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """``REFERENCE_SLICE_S`` over the median slice time around ``mark``."""
        window = self.samples[max(0, mark - WINDOW): mark + WINDOW + 1]
        return REFERENCE_SLICE_S / statistics.median(window)
