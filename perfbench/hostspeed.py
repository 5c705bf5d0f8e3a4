"""Wall times corrected for the speed of a shared host.

The benchmark runs on a few vCPUs of a shared machine whose speed drifts by
up to 2x, in phases that last from seconds to minutes, so raw wall times of
the same code spread wider across runs than a regression bound can allow.
While a pass runs, a timer signal runs a fixed pure-Python reference slice
in the same thread every ``PERIOD_S`` seconds and times it.  The slice runs
on the same vCPU as the pass and in the same phase, so it slows when the pass
slows.  The pass's wall time, less the time spent in the slices, is scaled
by ``NOMINAL_S`` over the slice times' harmonic mean: the result is seconds
at the host speed where one slice takes ``NOMINAL_S``.  A faster program
still reads faster; only the host's drift cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.03
# The slice's time at nominal speed, close to its median on a 2-vCPU x86_64
# VM, so that corrected times read near raw wall times there.
NOMINAL_S = 2.0e-4
# The slice's data is small and it creates only ints, which the garbage
# collector does not track, so it never triggers a collection over the
# workload's heap, and it refills its caches in microseconds after the
# workload evicts them.
_KEYS = [(i >> 3, i & 7) for i in range(64)]
_COUNTS = dict.fromkeys(_KEYS, 0)


def reference() -> int:
    """The fixed slice: dict updates on tuple keys, with integer arithmetic."""
    counts = _COUNTS
    x = 1
    for _ in range(12):
        for key in _KEYS:
            x = (x * 1103515245 + 12345) & 0xFFFF
            counts[key] = counts[key] ^ x
    return x


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def scale(wall: float, samples) -> float:
    """``wall`` in seconds at nominal host speed, given slice times taken at
    even intervals while it ran.  The harmonic mean of the slice times
    averages the host's speed over time, so a phase change within ``wall``
    counts for as long as it lasted."""
    return wall * NOMINAL_S / statistics.harmonic_mean(samples)


for _ in range(3):  # let the interpreter specialise the slice before it counts
    reference()


class Sampler:
    """Times the reference slice every ``PERIOD_S`` seconds while active.

    ``corrected(wall)`` takes the slices' own time out of ``wall`` and
    scales the rest to nominal host speed.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(time_reference())

    def __enter__(self):
        self.samples = [time_reference()]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def corrected(self, wall: float) -> float:
        return scale(wall - sum(self.samples[1:]), self.samples)
