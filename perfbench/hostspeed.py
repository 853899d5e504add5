"""Host speed, sampled through a run with a fixed pure-Python kernel.

The shared machine this benchmark was written on changes speed by up to a
third in phases of 10-20 s: a fixed pure-Python loop took between 14 and
24 ms from one 2 s window to the next, and raw wall times of identical
runs spread about 15 % (interquartile range over median).  The time of a
second fixed kernel, measured in the same windows, moved with it: their
ratio spread 4 %.

`HostSpeed` runs `kernel` from a SIGALRM handler every INTERVAL_S while the
benchmark measures.  The kernel touches nothing of fuzzbit, so its time
measures the host, not the program.  `scale(t0, t1)` is the median of
REFERENCE_NS / kernel time over the samples taken in and near [t0, t1].  A
wall time from that interval times this scale estimates the time on a host
where the kernel takes REFERENCE_NS: the program's time is taken to follow
the kernel's in proportion (README.md gives the measurements behind that).
The time spent in the handler is counted in `spent_ns`, so callers can take
it out of what they measure.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_NS = 350_000  # about the kernel's median time on the machine named in README.md
INTERVAL_S = 0.1
WINDOW_S = 0.5


def kernel():
    """Fixed interpreter work: integer arithmetic, a dict and small Fractions."""
    acc = 0
    table = {}
    for i in range(600):
        acc = (acc + i * 7) % 1013
        table[i & 63] = acc
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(1, i % 13 + 1)
    return acc, f


class HostSpeed:
    def __init__(self):
        self.samples: list = []  # (perf_counter seconds at start, kernel ns)
        self.spent_ns = 0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()  # a collection would time the program's heap, not the host
        start = time.perf_counter_ns()
        try:
            kernel()
        finally:
            end = time.perf_counter_ns()
            if collecting:
                gc.enable()
        self.samples.append((start / 1e9, end - start))
        self.spent_ns += end - start

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        near = [REFERENCE_NS / ns for t, ns in self.samples
                if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            _, ns = min(self.samples, key=lambda s: abs(s[0] - t0))
            near = [REFERENCE_NS / ns]
        return statistics.median(near)
