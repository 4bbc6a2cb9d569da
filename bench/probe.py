"""Machine-speed probe that takes host contention out of the timings.

On a shared host the same op can take 45 ms or 80 ms depending on what
other tenants run, in phases lasting seconds to minutes, so raw times of
whole runs spread by 20-30 %.  The probe measures that speed while the
benchmark runs: every `INTERVAL_S` of CPU time a SIGPROF handler runs a
fixed reference loop (pure-Python `Fraction` and dict work, the same
mix the package does) and records how long it took.  An interval of
program time is then reported as its raw duration, minus the probes that
ran inside it, times ``NOMINAL_S / mean(probe durations near it)``: the
time it would have taken at the speed where one probe takes `NOMINAL_S`.
Over 30 s of one repeated op, its raw 3 s medians moved between 46 and
86 ms while the scaled ones stayed between 49 and 55 ms.

No thread is started; the handler runs in the main thread between
bytecodes, like any Python signal handler, and touches no state of the
program under test.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
# Duration of one probe on an uncontended core of the machine the
# baselines were measured on (see README.md), so that figures read as
# uncontended seconds there.
NOMINAL_S = 0.0004
# Probes within this distance of an interval set its speed.
WINDOW_S = 0.1
MIN_PROBES = 3


def reference(rounds: int = 150) -> Fraction:
    table: dict = {}
    acc = Fraction(0)
    for i in range(rounds):
        key = (i % 97, (i * 7) % 13)
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[key] = table.get(key, 0) + 1
    return acc


class SpeedProbe:
    """Context manager that samples the reference loop while it is active."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
            self.ends.append(t1)
            self.durations.append(t1 - t0)
        finally:
            self._busy = False

    def sample(self) -> None:
        """Take one probe now, outside the timer (used before timing starts)."""
        self._handler(None, None)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def _inside(self, t0: float, t1: float) -> float:
        """Seconds of probe work that ran inside [t0, t1]."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return sum(self.durations[lo:hi])

    def _mean_near(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.ends, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.ends, t1 + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.ends)):
            before = t0 - self.ends[lo - 1] if lo > 0 else float("inf")
            after = self.ends[hi] - t1 if hi < len(self.ends) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        picked = self.durations[lo:hi]
        return sum(picked) / len(picked)

    def normalize(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] without probe work, at the nominal speed."""
        return (t1 - t0 - self._inside(t0, t1)) * NOMINAL_S / self._mean_near(t0, t1)
