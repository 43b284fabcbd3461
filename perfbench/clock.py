"""Op times scaled to a fixed machine speed.

The reference machine is a 2-core VM on a shared host.  The speed of the
same code drifts there with the load of other tenants: a fixed pure-Python
loop ran at 21 ms and at 32 ms per call a few seconds apart, with nothing
else running in the VM, and CPU time drifts with it.  So wall time alone
cannot tell two versions of the library apart by less than about 50%.

`SpeedClock` times a fixed calibration kernel that does not touch ellgreen
(Python integer and `Fraction` arithmetic and a small numpy reduction, the
three kinds of work the library does) every `PERIOD_S` seconds from a
SIGALRM handler while ops run.  Each sample gives the machine's speed,
`REF_S` over the kernel's time, for the slice of wall time around it.  An
op's time is its wall time, less the time spent in the handler, times the
mean speed over the samples taken during the op and in the `WINDOW_S`
seconds before it: the work the op would have taken at the reference speed.
When a neighbour slows the machine down, the kernel slows down with the op
and the scaled time stays put; a faster library lowers the scaled time by
the same factor as its wall time, because the kernel does not call the
library.  A mean of speeds, not a median, because a slow spell in the middle
of a long op lengthens it by its full duration.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.025     # one calibration sample per 25 ms of ops
WINDOW_S = 0.1       # samples this far before an op also count for it
REF_S = 0.65e-3      # the kernel's time on the reference machine when it is quiet

_ARRAY = np.linspace(0.0, 1.0, 1 << 14)


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    x = 0
    for i in range(2500):
        x += (i * i) % 7
    s = Fraction(0)
    for i in range(1, 40):
        s += Fraction(i, 7 + i % 5)
    for _ in range(4):
        np.cos(_ARRAY).sum()
    return time.perf_counter() - start


class SpeedClock:
    """Times ops in reference-speed seconds while it is entered."""

    def __init__(self):
        self.times = []      # when each sample started (perf_counter)
        self.kernels = []    # the kernel's seconds in each sample
        self.stolen = 0.0    # seconds spent in the handler
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.kernels.append(kernel_seconds())
        self.times.append(start)
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "SpeedClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def run_op(self, fn):
        """Run one op; returns (result or exception, raised flag, seconds at
        the reference speed)."""
        first = bisect.bisect_left(self.times, time.perf_counter() - WINDOW_S)
        stolen = self.stolen
        start = time.perf_counter()
        try:
            result, raised = fn(), False
        except Exception as exc:  # an op failure is data; the pass goes on
            result, raised = exc, True
        wall = time.perf_counter() - start - (self.stolen - stolen)
        return result, raised, wall * _mean_speed(self.kernels[first:] or self.kernels[-1:])

    @property
    def speed(self) -> float:
        """Mean speed over every sample so far."""
        return _mean_speed(self.kernels)


def _mean_speed(kernels: list[float]) -> float:
    return statistics.fmean(REF_S / k for k in kernels)
