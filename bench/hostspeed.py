"""Host-speed correction for timings taken on a shared machine.

On a host shared with other tenants, the same code runs up to twice as slow
while the neighbours are busy, in stretches of seconds to minutes; process
CPU time rises with wall time, so it does not help.  Whole runs of 35 s can
fall in a fast or a slow stretch, which no statistic over one run's samples
can undo.

So a fixed calibration kernel, timed just before each unit of work, measures
how fast the host runs at that moment, and every time the benchmark reports
is scaled to the speed at which the kernel takes REFERENCE_SECONDS: a raw
time t measured while the kernel took k seconds is reported as
t * REFERENCE_SECONDS / k.  A change to veribench does not touch the kernel,
so it moves the reported times as much as it moves the raw ones.

The kernel mixes the two kinds of work veribench does: numpy calls on small
arrays (the forward pass of a 50-wide, 7-layer ReLU net on one point) and
plain Python (integer arithmetic and dict stores).  On the 2-vCPU Xeon
(2.0 GHz) host where the benchmark was written, the attack workload's item
times rose with the kernel's time at a fitted slope of 1.0 (log-log), and
scaling cut the spread of 10-second means of item times from 0.11 to 0.02.
The kernel took 0.7 to 1.5 ms there; REFERENCE_SECONDS is a round value in
that range.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_SECONDS = 1e-3
REPEATS = 3  # kernel runs per probe; a probe reads their median

_rng = np.random.default_rng(0)
_LAYERS = [(_rng.standard_normal((50, 50)) / 7.0, _rng.standard_normal(50)) for _ in range(7)]
_X = _rng.standard_normal(50)


def kernel() -> int:
    for _ in range(20):
        h = _X
        for w, b in _LAYERS:
            h = np.maximum(w @ h + b, 0.0)
    s, d = 0, {}
    for i in range(3000):
        s += i * i % 7
        d[i & 63] = s
    return s


class HostSpeed:
    """Probes of the kernel, in the order they were taken."""

    def __init__(self):
        self.durations: list = []  # kernel seconds, one per probe
        self.spent = 0.0  # wall seconds spent in probes

    def probe(self) -> float:
        """Time the kernel; record and return its median over REPEATS runs."""
        start = time.perf_counter()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        k = statistics.median(times)
        self.durations.append(k)
        self.spent += time.perf_counter() - start
        return k

    def scale(self, since: int = -1) -> float:
        """Factor taking a time measured after probe `since` (an index into
        durations) to reference speed; with several probes, their median."""
        return REFERENCE_SECONDS / statistics.median(self.durations[since:])


class Unscaled(HostSpeed):
    """No probes and raw times, for traced runs."""

    def probe(self) -> float:
        return REFERENCE_SECONDS

    def scale(self, since: int = -1) -> float:
        return 1.0
