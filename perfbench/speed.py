"""A speedometer for the box the benchmark runs on.

The 2-core box this benchmark was built on changes speed by tens of
percent within seconds (other tenants share its cores): the same block of
planner cycles, run back to back, takes anywhere from 0.8 to 1.15 times
its median, and whole 30 s runs came out up to 1.6 times faster than the
next.  While a run measures, a timer signal runs a fixed 2 ms calibration
kernel every PERIOD seconds.  A timing taken over an interval is scaled
by kernel_ref / (mean kernel time in that interval), which reads it at
the speed the box had when the outputs were pinned; time spent in the
kernel itself is taken out of every interval it fell in.

The kernel is benchmark code, not soarsim code, so no change to soarsim
can move it.  It mixes the two kinds of work soarsim does: scalar Python
float arithmetic like one kinematic step, and numpy calls on arrays the
size of the planner's (actions x samples x waypoints).
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

PERIOD = 0.1  # s between kernel runs

_POSITIONS = np.linspace(-50.0, 50.0, 420).reshape(7, 60)
_STRENGTHS = np.linspace(1.0, 3.0, 10)


def _kernel() -> float:
    x = y = psi = phi = rate = integ = 0.0
    for _ in range(600):
        err = 0.6 - phi
        integ = min(0.3, max(-0.3, integ + 0.006 * err * 0.02))
        aileron = max(-1.0, min(1.0, 0.04 * err + integ))
        rate += (1.448 * aileron + 0.23 * rate / 18.0) / 0.00257 * 0.02 * 0.001
        phi += rate * 0.02
        psi = (psi + 9.80665 * math.tan(phi) / 9.0 * 0.02 + math.pi) % (2.0 * math.pi) - math.pi
        x += 9.0 * math.sin(psi) * 0.02
        y += 9.0 * math.cos(psi) * 0.02
    total = 0.0
    for _ in range(16):
        lift = _STRENGTHS[None, :, None] * np.exp(-(_POSITIONS[:, None, :] ** 2) / 3600.0)
        total += float(lift.sum(axis=2).mean(axis=1).sum())
    return x + y + total


def kernel_seconds() -> float:
    """Median wall seconds of three back-to-back runs of the kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


class Speedometer:
    """Runs the kernel every PERIOD seconds while active (SIGALRM; main thread only).

    mark() returns a point in time; interval(a, b) gives, for the span
    between two marks, (seconds outside the kernel, mean kernel seconds).
    """

    def __init__(self):
        self._starts: list[float] = []  # clock at each kernel run
        self._kernel: list[float] = []  # its duration
        self._spent = [0.0]  # kernel seconds before each run, then the total

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        seconds = time.perf_counter() - t0
        self._starts.append(t0)
        self._kernel.append(seconds)
        self._spent.append(self._spent[-1] + seconds)

    def __enter__(self) -> "Speedometer":
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), len(self._kernel)

    def interval(self, a, b) -> tuple[float, float]:
        (t0, i0), (t1, i1) = a, b
        seconds = t1 - t0 - (self._spent[i1] - self._spent[i0])
        runs = self._kernel[i0:i1]
        if not runs:  # none inside: the run just before, and the next one if it has happened
            j = max(0, bisect.bisect(self._starts, t0) - 1)
            runs = self._kernel[j:j + 2]
        return seconds, sum(runs) / len(runs)

    def kernel_median(self) -> float:
        return float(np.median(self._kernel))
