"""Machine-pace sampling: cancels co-tenant interference in timings.

On a shared machine the same code runs up to about 1.75x slower for seconds
at a time while a neighbour is busy.  A 15-second run catches a random
share of those slow spells, so raw wall-clock figures of ten runs spread by
10-27% (interquartile range over median).  The benchmark therefore times a
fixed reference loop (pure Python, independent of the package) every
PERIOD seconds from a SIGALRM handler, and scales each request's
latency by REF_SECONDS / (reference-loop time around that request).  A
normalized time reads as the time on a machine where the reference loop
takes REF_SECONDS; parent and change are compared on the same scale.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

REF_SECONDS = 0.0005   # nominal reference-loop time; it only sets the scale of normalized times
PERIOD = 0.05          # seconds between samples
_M61 = (1 << 61) - 1


class _Node:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b and self.c == other.c

    def combine(self, other):
        return _Node((self.a * other.b + self.c) % 101, (self.b + other.c) % 101,
                     (self.c * other.a + 1) % 101)


def reference_loop() -> int:
    """Fixed work shaped like the package's: exact fractions, 61-bit modular
    products, small slotted objects hashed into sets and dicts.  Co-tenant
    load slows it by about the same factor as the package (within about 5%
    on 5-second windows), which a pure arithmetic loop does not achieve."""
    x, table = Fraction(1, 3), {}
    for i in range(24):
        x = x * Fraction(i + 2, i + 1) + Fraction(1, i + 3)
        table[(i, i % 7)] = x
    y = 3
    for i in range(300):
        y = (y * 1234567891 + i) % _M61
    s = 0
    for i in range(1000):
        s += i * i % 7
    nodes = [_Node(i % 101, i * 7 % 101, i * 13 % 101) for i in range(150)]
    seen = set()
    for i in range(150):
        node = nodes[i].combine(nodes[i - 1])
        seen.add(node)
        table[node] = i
    return s + y + len(seen) + len(table)


def time_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


class PaceSampler:
    """Reference-loop samples taken every PERIOD seconds while active."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        reference_loop()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self) -> "PaceSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, before: float, after: float, elapsed: float) -> tuple[float, float]:
        """(raw, normalized) seconds of a request timed inside [before, after].

        Samples taken inside the interval interrupted the request, so their
        time is taken off; the pace is the mean reference-loop time over the
        interval and the two periods before it."""
        lo = bisect_left(self.starts, before - 2 * PERIOD)
        inside = bisect_left(self.starts, before)
        hi = bisect_left(self.starts, after)
        raw = elapsed - sum(self.durations[inside:hi])
        window = self.durations[lo:hi] or self.durations[-1:]
        return raw, raw * REF_SECONDS * len(window) / sum(window)
