"""Measures how fast the machine runs, so times can be given at one speed.

On a shared host the speed of a vCPU changes by tens of percent over
seconds to minutes: raw build times and query latencies from runs a few
minutes apart differed by up to 80%, more than a code change would move
them.  A Sampler therefore interrupts the child every PERIOD_S of wall
time (SIGALRM) and, in the same thread, times a fixed reference
computation.  A span of time is then given at the reference speed: its
length, less the sampler's own time, times REFERENCE_MS times the mean
of 1/(reference time) over the samples taken in it.  Each slice of wall
time thus counts at the speed measured in it.  A change to looptop moves
scaled times in full, because the reference shares no code with it; a
change of machine speed mostly cancels.

The reference is a sparse product of two small dicts with int-tuple
keys, the same kind of work as a cup product or a row reduction.  Int
and tuple hashes do not depend on PYTHONHASHSEED, so it does the same
work in every child.
"""

import bisect
import random
import signal
import statistics
from time import perf_counter

# The reference's median time on a quiet 2-vCPU x86-64 VM with CPython
# 3.11.  Scaled times are given at that speed.
REFERENCE_MS = 0.032
PERIOD_S = 0.02
# Each sample times the reference BURST times and takes the median of
# all but the first WARM, which warm the caches after the program's work.
BURST = 8
WARM = 2
# A span with fewer samples in it borrows the nearest ones around it.
MIN_SAMPLES = 3
# A query is scaled by the samples within this much of it.
QUERY_PAD_S = 0.1


def _terms(rng, n):
    return {(tuple(rng.randrange(4) for _ in range(rng.randint(1, 4))),
             rng.randrange(6)): rng.choice((-3, -2, -1, 1, 2, 3))
            for _ in range(n)}


_rng = random.Random(0)
_X, _Y = _terms(_rng, 10), _terms(_rng, 10)


def reference():
    """Sparse product of _X and _Y by concatenating keys, cut at length 9."""
    out = {}
    for (v1, a1), c1 in _X.items():
        for (v2, a2), c2 in _Y.items():
            if len(v1) + len(v2) > 9:
                continue
            k = (v1 + v2, a1 + a2)
            y = out.get(k, 0) + c1 * c2
            if y:
                out[k] = y
            else:
                out.pop(k, None)
    return out


def reference_ms():
    """The reference's time now, in ms: median over one burst."""
    times = []
    for _ in range(BURST):
        t = perf_counter()
        reference()
        times.append(perf_counter() - t)
    return statistics.median(times[WARM:]) * 1000


class Sampler:
    """Samples the reference speed from a SIGALRM handler.

        with Sampler() as sampler:
            mark = sampler.mark()
            ...
            seconds = sampler.since(mark)   # at the reference speed

    `spent` is the time the handler has taken so far; spans subtract
    the part of it that fell inside them.
    """

    def __init__(self):
        self.times = []
        self.reference_ms = []
        self._inverse = []
        self.spent = 0.0

    def __enter__(self):
        self._sample()  # so that every span has a sample near it
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, *_):
        t = perf_counter()
        self.record(t, reference_ms())
        self.spent += perf_counter() - t

    def record(self, t, ms):
        """Note that the reference took ms milliseconds at time t."""
        self.times.append(t)
        self.reference_ms.append(ms)
        self._inverse.append(1 / ms)

    def mark(self):
        return perf_counter(), self.spent

    def net(self, mark):
        """Seconds since mark, less the handler's time, and the end time."""
        t0, spent0 = mark
        t1 = perf_counter()
        return t1 - t0 - (self.spent - spent0), t1

    def since(self, mark):
        """Seconds since mark, at the reference speed."""
        seconds, t1 = self.net(mark)
        return self.scale(mark[0], t1, seconds)

    def scale(self, t0, t1, seconds, pad=0.0):
        """seconds, measured over [t0, t1], at the reference speed of the
        samples within pad of that span."""
        i = bisect.bisect_left(self.times, t0 - pad)
        j = bisect.bisect_right(self.times, t1 + pad)
        while j - i < MIN_SAMPLES and (i > 0 or j < len(self.times)):
            i, j = max(i - 1, 0), min(j + 1, len(self.times))
        return seconds * REFERENCE_MS * statistics.fmean(self._inverse[i:j])
