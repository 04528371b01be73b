"""Host-speed calibration: a fixed pure-Python task timed around and inside every measured span.

On a shared virtual machine the speed of the host drifts by up to 1.6x over
seconds to minutes, in CPU time as much as in wall time, so raw timings of the
same code differ from run to run by more than any useful bound.  The benchmark
therefore times this reference task at calibration points: at the end of every
measured span (one CLI invocation, or a pass's set-up rounds) and, in untraced passes,
every ``PERIOD_S`` inside a span, from a ``SIGALRM`` handler in the one thread
that runs the program.  Each stretch of the program's wall time between two
points is scaled by ``NOMINAL_S / (mean reference seconds of the two points)``;
the points' own time is left out.  The result reads as seconds on a host where
the reference takes ``NOMINAL_S``: a slower program still reads slower, a
slower host does not.

The task mixes what the package does most: tuple-keyed dicts in a
breadth-first search over a permutation group, and ``Fraction`` sums.  It lives
in the benchmark, not the package, so no change to the package moves it.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# median seconds of one reference_task() on a 2-vCPU Intel Xeon VM, Python 3.11
NOMINAL_S = 0.03
REPEATS = 3  # reference tasks at a span's end; their median is the point
PERIOD_S = 0.3  # wall seconds between the one-task points inside a span


def reference_task() -> Fraction:
    """Breadth-first search of S_7 by adjacent transpositions, summing a Fraction per new vertex."""
    start = tuple(range(7))
    seen = {start: 0}
    frontier = [start]
    acc = Fraction(0)
    while frontier:
        nxt = []
        for p in frontier:
            d = seen[p]
            for i in range(6):
                q = p[:i] + (p[i + 1], p[i]) + p[i + 2 :]
                if q not in seen:
                    seen[q] = d + 1
                    nxt.append(q)
                    acc += Fraction(d + 1, i + 2)
        frontier = nxt
    return acc


def reference_seconds(repeats: int) -> float:
    """One calibration point: median seconds of ``repeats`` reference tasks.

    The collector is off while the tasks run, so the size of the program's
    heap does not leak into the point.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            reference_task()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Calibrated:
    """Two clocks of the work done while ``running``: wall seconds and scaled seconds.

    ``read`` takes a calibration point and returns both clocks; a span's
    seconds are the difference of the readings at its ends.  With ``sample``,
    a ``SIGALRM`` handler also takes a point every ``PERIOD_S`` while running.
    Without ``calibrate`` no reference task runs and the scaled clock is the
    wall clock, for the smoke mode, which checks outputs and not speed.
    """

    def __init__(self, sample: bool, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        self.sample = sample and calibrate
        self.wall = 0.0
        self.scaled = 0.0
        self.points = [self._reference(REPEATS)]
        self._pending = 0.0  # wall seconds run since the last point
        self._since: float | None = None  # when the current stretch of running began
        if self.sample:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _reference(self, repeats: int) -> float:
        return reference_seconds(repeats) if self.calibrate else NOMINAL_S

    def _start(self) -> None:
        self._since = time.perf_counter()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def _stop(self) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._pending += time.perf_counter() - self._since
        self._since = None

    def _point(self, repeats: int) -> None:
        point = self._reference(repeats)
        self.wall += self._pending
        self.scaled += self._pending * NOMINAL_S / ((self.points[-1] + point) / 2)
        self._pending = 0.0
        self.points.append(point)

    def _on_alarm(self, signum, frame) -> None:
        if self._since is None:
            return
        self._stop()
        self._point(1)
        self._start()

    @contextlib.contextmanager
    def running(self):
        """Count the wall time of the block as work."""
        self._start()
        try:
            yield
        finally:
            self._stop()

    def elapsed(self) -> float:
        """Wall seconds of work so far, without taking a point; call it while not running."""
        return self.wall + self._pending

    def read(self) -> tuple[float, float]:
        """Take a calibration point; the wall and scaled seconds of work so far."""
        gc.collect()
        self._point(REPEATS)
        return self.wall, self.scaled
