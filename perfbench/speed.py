"""Command timing at a reference speed, for a host whose speed drifts."""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# Seconds the reference kernel takes at the speed times are reported at:
# about its median on the 2-core Xeon VM (one BLAS thread) the bounds were
# set on.
REFERENCE_S = 0.002


class Speedometer:
    """Times commands at reference speed on a host whose speed drifts.

    The reference kernel is a fixed mix of interpreter work and small numpy
    operations, like the workloads.  While a command runs, an interval
    timer runs the kernel every SAMPLE_EVERY_S seconds; the command's wall
    time, less the time those samples took, is multiplied by REFERENCE_S
    over the mean kernel time seen during and right after the command.
    Slow and fast spells of a shared host then cancel out; sampling only
    between commands does not, because the spells are shorter than the
    longer commands.
    """

    SAMPLE_EVERY_S = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((48, 48))
        self.x = rng.standard_normal((16, 8, 8, 8))
        self.small = rng.standard_normal((8, 8))
        self.big = rng.standard_normal((256, 1024))
        self.last = self.sample()
        self._samples = []
        self._spent = 0.0

    def _kernel(self):
        # Three parts, because each workload tracks the host's speed through
        # a different one: interpreter loops with mid-sized arrays, dispatch
        # of tiny arrays, and megabyte-sized copies.
        t0 = perf_counter()
        for _ in range(10):
            total = 0
            for i in range(1000):
                total += i * i
            self.a @ self.a
            np.maximum(self.x, 0.0).sum(axis=(2, 3))
            self.x.transpose(0, 2, 3, 1).reshape(-1, 8).copy()
        for _ in range(200):
            y = np.maximum(self.small @ self.small, 0.0)
            y.sum()
            y.T.copy()
        for _ in range(2):
            self.big.copy().sum(axis=0)
        return perf_counter() - t0

    def sample(self):
        return statistics.median(self._kernel() for _ in range(3))

    def _on_timer(self, _signum, _frame):
        t0 = perf_counter()
        self._samples.append(self._kernel())
        self._spent += perf_counter() - t0

    def time(self, fn, *args):
        """Call fn(*args); returns (result, wall seconds of fn's own work,
        the same at reference speed)."""
        self._samples, self._spent = [self.last], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        try:
            t0 = perf_counter()
            result = fn(*args)
            wall = perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.last = self.sample()
        work = wall - self._spent
        reference = statistics.mean(self._samples + [self.last])
        return result, work, work * REFERENCE_S / reference
