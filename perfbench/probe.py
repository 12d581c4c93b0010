"""Machine-speed probe, interleaved with a timed call in the same thread.

On a shared host the speed of the same code drifts by tens of percent, in
spells of seconds to minutes: steal time, other tenants on the same cores
and caches.  A probe that runs before or after the timed call sees a
different spell.  This one runs inside the call: a SIGALRM every PERIOD_S
seconds interrupts it and runs a fixed piece of benchmark-owned work (no
reinhardt code, so a change to the program cannot speed the probe up).
The mean probe duration over the call, without its fastest and slowest
tenth, is the machine's speed during that call, and

    normalized time = (call time - probe time) * REFERENCE_S / mean probe

is the call's time at the speed at which one probe takes REFERENCE_S.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# Typical probe duration on the machine the benchmark was built on (2 vCPUs
# of a shared host, CPython 3.11, numpy 2.4).  Any fixed value would do: it
# only sets the scale of the normalized time.
REFERENCE_S = 0.0006

_X = np.linspace(0.0, 1.0, 257)


def _work() -> float:
    """Interpreter-bound float and dict work plus small numpy calls, like the CLI's."""
    total, seen = 0.0, {}
    for i in range(1500):
        total += (i * 1.0001) % 7.0
        seen[i & 63] = total
    for _ in range(20):
        total += float(np.sum(np.exp(-_X * total * 1e-3) * _X)) * 1e-3
    return total


class SpeedProbe:
    """Context manager: runs the probe every PERIOD_S seconds while open."""

    def __init__(self):
        self.durations: list[float] = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _work()
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, elapsed: float) -> float:
        """`elapsed` (which includes the probes) at the reference speed."""
        if len(self.durations) < 5:
            raise RuntimeError(f"only {len(self.durations)} probes ran; the call is too short")
        ranked = sorted(self.durations)
        cut = len(ranked) // 10
        typical = statistics.fmean(ranked[cut:len(ranked) - cut])
        return (elapsed - sum(ranked)) * REFERENCE_S / typical
