"""A fixed piece of pure-Python work that measures the host's speed.

The benchmark runs on shared machines whose speed drifts by a third or
more over minutes: the same analysis pass, in one process, took 0.68 s
a pass in one 20 s window and 0.87 s in another.  A run of an
in-process workload measures this reference between its rounds, and
scales every timed operation by
REFERENCE_S / (the reference time around its round): a value is what the
operation would take on a host where the reference takes REFERENCE_S.
The reference is the benchmark's own code, so a change to the program
moves the scaled times exactly as much as the wall-clock ones.

The work mixes the program's kinds: an integer loop, tuples in dicts and
sets with sorting, and Gaussian elimination over Fractions.  It allocates
less than a megabyte, so it does not raise the benchmark's peak RSS.
"""

import random
import statistics
import time
from fractions import Fraction

# The median reference time on the 2-core host where the benchmark was
# defined (Python 3.11); it only fixes the scale of the scaled times.
REFERENCE_S = 0.035
# The share of a run's time spent on the reference.
SHARE = 0.08


def _integers():
    total = 0
    for i in range(150_000):
        total += i & 7
    return total


def _tuples():
    found = 0
    for shift in range(6):
        table = {}
        for i in range(5_000):
            key = ((i + shift) % 97, i % 89)
            table[key] = table.get(key, 0) + 1
        found += sum((b, a) in table for a, b in table)
        found += len(set(sorted(table)[::7]))
    return found


def _fractions():
    rng = random.Random(5)
    n = 14
    m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            continue
        m[c], m[pivot] = m[pivot], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def reference_seconds():
    """Wall time of one run of the reference work."""
    start = time.perf_counter()
    _integers()
    _tuples()
    _fractions()
    return time.perf_counter() - start


class HostSpeed:
    """Reference times taken between the rounds of a run.

    Each round gets the scale REFERENCE_S / (median of the reference
    times just before and just after it), so that a slow spell of the
    host is taken out of the rounds it slows."""

    def __init__(self):
        reference_seconds()  # warm-up, not kept
        self.samples = []
        self._last = self._take(1)

    def _take(self, count):
        new = [reference_seconds() for _ in range(count)]
        self.samples += new
        return new

    def after_round(self, elapsed):
        """Sample after a round until the reference has taken SHARE of
        the elapsed time (long rounds get several samples, short ones
        one); return the round's scale: multiply its times by it."""
        new = self._take(1)
        while sum(self.samples) < SHARE * elapsed:
            new += self._take(1)
        scale = REFERENCE_S / statistics.median(self._last + new)
        self._last = new
        return scale
