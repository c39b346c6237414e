"""Machine-speed calibration for the benchmark's timings.

The shared machine the benchmark was tuned on changes speed by up to
about 45% for stretches of 5 to 40 seconds (a fixed pure-Python loop
alternates between about 72 and 110 ns per iteration), so a raw wall
time depends on when it was taken more than on the code.  Every
reported time is therefore scaled to a machine on which the loop below
takes REFERENCE_NS per iteration: seconds * REFERENCE_NS / the loop's
speed measured while those seconds passed.
"""

from __future__ import annotations

import bisect
import signal
import time

REFERENCE_NS = 72.0
SETUP_ITERATIONS = 250_000     # about 18 ms, around each set-up process
SAMPLE_ITERATIONS = 15_000     # about 1 ms ...
SAMPLE_PERIOD_S = 0.05         # ... every 50 ms during a timed part


def loop_ns(iterations):
    """Nanoseconds per iteration of the fixed calibration loop."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return (time.perf_counter_ns() - start) / iterations


def scale(seconds, ns_per_iteration):
    """`seconds` at reference machine speed."""
    return seconds * REFERENCE_NS / ns_per_iteration


class SpeedSampler:
    """Measures the loop's speed every SAMPLE_PERIOD_S from a SIGALRM
    handler while active, so that even a long operation is scaled by
    the speed the machine had while it ran.  Time spent in the handler
    is kept in `busy` so callers can take it out of their timings."""

    def __init__(self):
        self.times = []          # perf_counter at each sample
        self.speeds = []         # ns per iteration at each sample
        self.busy = 0.0
        self._old = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.speeds.append(loop_ns(SAMPLE_ITERATIONS))
        self.times.append(start)
        self.busy += time.perf_counter() - start

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(None, None)

    def speed(self, t0, t1):
        """Mean loop speed over the samples taken in [t0, t1], or the
        sample nearest to that interval when none fell inside it."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi > lo:
            return sum(self.speeds[lo:hi]) / (hi - lo)
        near = [i for i in (lo - 1, lo) if 0 <= i < len(self.times)]
        mid = (t0 + t1) / 2
        return self.speeds[min(near, key=lambda i: abs(self.times[i] - mid))]
