"""Machine-speed samples for drift-corrected timing.

The benchmark shares its machine with other tenants, and their load moves
the speed of a core by up to 2x within seconds: a fixed pure-Python loop
took anywhere from 0.15 s to 0.33 s between one second and the next, with
nothing else of ours running.  A timing taken over a few seconds then
mostly measures the neighbours.  The benchmark therefore times a short,
fixed reference loop at a steady rate while it measures, on the same
core, and divides each measured time by the slowdown of the reference
loop over the same interval.  The reference loop is the benchmark's own
code, so a change to the program cannot move it.  On an idle machine at
full speed the corrected time equals the plain wall time.
"""

from __future__ import annotations

import os
import signal
import time
from fractions import Fraction

import numpy as np

# Time of one reference loop on an idle core of the reference machine
# (2 cores, Python 3.11.7, numpy 2.4.6); corrected times are in seconds of
# that machine.
REF_NOMINAL_S = 0.0043
SAMPLE_PERIOD_S = 0.2

# Preallocated, so that sampling adds no allocations to the peak memory of
# the run: a small array that stays in the core's cache and one as large
# as the biggest arrays of the program, which has to come from the shared
# cache or from memory, as the program's arrays do.
_SMALL = np.linspace(0.0, 1.0, 1 << 15)
_LARGE = np.linspace(0.0, 1.0, 1 << 20)
_BUF = np.empty(1 << 20)


def reference_loop() -> float:
    """Seconds taken by a fixed mix of Fraction, float and numpy work."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 800):
        s += Fraction(1, i % 97 + 1)
    x = 0.0
    for i in range(4000):
        x += i * 0.5
    n = _SMALL.size
    for _ in range(8):
        np.multiply(_SMALL, 0.999, out=_BUF[:n])
        np.maximum(_BUF[1:n], _SMALL[:-1], out=_BUF[1:n])
    np.multiply(_LARGE, 0.999, out=_BUF)
    return time.perf_counter() - t0


def pin_to_one_core() -> None:
    """Keep this process and its children on one core, so that the
    reference samples see the core the measured work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedSampler:
    """Times the reference loop every SAMPLE_PERIOD_S while active.

    Samples run from a SIGALRM handler, between bytecodes of whatever the
    main thread is executing; `spent` accumulates their time so that a
    caller can take it out of its own measurement.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False

    def slowdown(self) -> float:
        """Mean reference time over the active interval, relative to nominal."""
        return float(np.mean(self.samples)) / REF_NOMINAL_S
