"""Machine-speed calibration for the end-to-end times.

The benchmark's timings come from a shared 2-vCPU VM whose speed drifts by
up to 1.8x over tens of seconds (the same pure-Python loop takes 75 ms to
150 ms).  Run-to-run spreads of raw times then exceed any usable bound.
So the benchmark also times a fixed pure-Python kernel throughout each
run and reports times scaled to a reference speed:

    reported = raw seconds * REFERENCE_KERNEL_S / median kernel time

The kernel is sparse polynomial multiplication over Fraction coefficients
written here, not in venlab, so a change to venlab never changes it, and
it exercises the interpreter and memory the way venlab's products do.
On this VM, timing it around each call cut the run-to-run variation of
a bhatwadekar-dutta verify from 16% to 9% and of the generic verify from
14% to 12% (coefficient of variation; the probe below samples more
densely than that test did).  Raw figures are kept in the record.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

#: Median kernel time on the 2-vCPU x86 VM (Python 3.11.7) the benchmark
#: was written on, so reported seconds are close to seconds there.
REFERENCE_KERNEL_S = 0.020

#: Seconds between kernel samples during a run.
PERIOD_S = 0.5

#: Kernel samples this far either side of a call count towards its speed.
WINDOW_S = 1.0

_F = {(i, j, k, (i + 2 * j + 3 * k) % 4): Fraction(i + j + 1, k + 2)
      for i in range(5) for j in range(4) for k in range(3)}
_G = {(j, k, i, (i * j + k) % 3): Fraction(k + 1, i + j + 1)
      for i in range(5) for j in range(4) for k in range(3)}


def kernel() -> dict:
    """Product of two fixed 60-term polynomials (about 1500 terms)."""
    out = {}
    for m1, c1 in _F.items():
        for m2, c2 in _G.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def calibrate(repeats: int = 3) -> float:
    """Median kernel time over `repeats` back-to-back runs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedProbe:
    """Times the kernel every PERIOD_S seconds from a SIGALRM handler.

    The handler runs between bytecodes of whatever is executing, so the
    samples cover long cases too.  `spent` is the total time spent in the
    handler, to be subtracted from any interval that contains it.
    """

    def __init__(self):
        self.samples = []   # (start, kernel seconds)
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        kernel()
        elapsed = perf_counter() - start
        self.samples.append((start, elapsed))
        self.spent += elapsed

    def __enter__(self):
        self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def speed(self, start: float, end: float) -> float:
        """Median kernel time among samples taken in [start, end], else the nearest one."""
        inside = [k for t, k in self.samples if start <= t <= end]
        if inside:
            return statistics.median(inside)
        return min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]
