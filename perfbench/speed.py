"""Machine-speed reference for the latency metrics.

The benchmark runs on shared virtual machines whose speed drifts by 20-30%
over seconds to minutes: the same pure-Python loop takes 23 ms in one
minute and 34 ms in the next, in wall and in CPU time alike.  A raw wall
time therefore measures the host's load as much as the program.

So while the runner times ops, a timer signal runs a small fixed kernel,
the benchmark's own code and never the program's, every PERIOD_S seconds,
also in the middle of an op.  The time spent in the kernel is taken out of
the op's latency.  An op's calibrated latency is that latency times REF_S
over the median kernel time in a window around the op: the time the op
would take on a machine that runs the kernel in REF_S.  A change to the
program moves calibrated times as it moves wall times; a change of machine
speed moves the kernel with the op and cancels.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

# Median kernel time on a 2-vCPU x86-64 VM, the speed the calibrated
# figures are quoted at.
REF_S = 0.0004
PERIOD_S = 0.04
WINDOW_S = 0.25  # kernel samples this far before and after an op count for it


class _Point:
    def __init__(self, a):
        self.a = a

    def step(self, x):
        return self.a * x + 1.0


_POINT = _Point(0.5)


def kernel() -> float:
    """About 0.4 ms of integer arithmetic and method calls, the interpreter
    work the library's ops are made of.  It allocates no containers and its
    data fits in any cache, so the program's heap and working set, which a
    change to the program may move, do not reach it."""
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    x = 0.0
    for _ in range(1500):
        x = _POINT.step(x) * 0.5
    return acc + x


class SpeedLog:
    """Kernel samples, as (end time, kernel seconds), and the total time
    the timer took from the program."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self.spent = 0.0
        self.running = False

    def sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # the program's heap must not slow the kernel
        try:
            kernel()
        finally:
            if collecting:
                gc.enable()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.kernel_s.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    @contextmanager
    def ticking(self):
        """Sample every PERIOD_S seconds inside the block."""
        old = signal.signal(signal.SIGALRM, self.sample)
        self.resume()
        try:
            yield self
        finally:
            self.pause()
            signal.signal(signal.SIGALRM, old)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.running = False

    def resume(self) -> None:
        if not self.running:  # re-arming would restart the period
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            self.running = True

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median kernel time from WINDOW_S before `start`
        to WINDOW_S after `end`."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.kernel_s[lo:hi] or self.kernel_s
        return REF_S / statistics.median(near)

    def run_factor(self) -> float:
        return REF_S / statistics.median(self.kernel_s)
