"""A fixed exact-arithmetic computation that measures how fast the CPU runs.

On a shared virtual machine the speed of a CPU changes by up to 2x within
a tenth of a second and from minute to minute, as other tenants load the
host; the process's own CPU time slows down with it. The benchmark runs
`reference()` every few milliseconds while the CLI calls run, from a timer
signal, takes the time of those runs out of each call's time, and scales
the rest to a CPU that runs `reference()` in `REFERENCE_S` seconds. The
computation uses only the standard library (Fraction elimination, a
dict-of-Fraction polynomial product and big integers, the mix the
`artifact` package spends its time on), so no change to the package
changes it.

    python3 bench/reference.py

prints the time of `reference()` on this machine.
"""

import signal
import statistics
import time
from fractions import Fraction

# Median time of one reference() call on the 2-vCPU x86_64 virtual machine
# (Python 3.11.7) where the baseline in bench/BASELINE.json was measured.
REFERENCE_S = 0.0006

# Time between two reference() runs while a call runs: about a tenth of
# the time goes to them.
INTERVAL_S = 0.006


def reference():
    """Deterministic work of about 0.6 ms; returns a check value."""
    n = 5
    rows = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1)
             for j in range(n)] for i in range(n)]
    for c in range(n):
        pivot = rows[c][c]
        for r in range(c + 1, n):
            f = rows[r][c] / pivot
            for k in range(c, n):
                rows[r][k] -= f * rows[c][k]
    poly = {i: Fraction(i + 1, i + 2) for i in range(8)}
    square = {}
    for i, a in poly.items():
        for j, b in poly.items():
            square[i + j] = square.get(i + j, 0) + a * b
    big = 3 ** 400
    for _ in range(12):
        big = (big * big) % (7 ** 700)
    return (rows[n - 1][n - 1], square[7], big % 1000003)


class Speedometer:
    """Samples the CPU's speed with reference() runs.

    Inside `with meter:` a timer signal runs reference() every INTERVAL_S
    of wall time, so the samples spread evenly over that time; `ticks`
    holds the (start, end, reference() seconds) of each run of the signal
    handler, and `during(t0, t1)` sums up the runs between two
    `time.perf_counter()` readings, so that the caller can take the
    handler's time out of its own timing. `sample(n)` runs reference() n times directly.
    `scale()` is REFERENCE_S over the mean time of one run: seconds of
    work times scale() is the time the same work takes on the reference
    CPU.
    """

    def __init__(self):
        self.samples = []
        self.ticks = []
        self._old = None
        reference()  # the first run warms the interpreter's caches

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        reference()
        sample = time.perf_counter() - t0
        self.samples.append(sample)
        self.ticks.append((t0, time.perf_counter(), sample))

    def during(self, t0, t1, first=0):
        """(handler seconds, reference() seconds, runs) between two
        perf_counter() readings t0 and t1, looking at ticks[first:]."""
        inside = [(end - start, sample)
                  for start, end, sample in self.ticks[first:]
                  if t0 <= start < t1]
        return (sum(h for h, _ in inside), sum(s for _, s in inside),
                len(inside))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def sample(self, n):
        for _ in range(n):
            t0 = time.perf_counter()
            reference()
            self.samples.append(time.perf_counter() - t0)

    def scale(self):
        return REFERENCE_S / statistics.fmean(self.samples)


def main():
    meter = Speedometer()
    meter.sample(1000)
    print("reference(): median %.6f s over %d runs, scale %.4f"
          % (statistics.median(meter.samples), len(meter.samples),
             meter.scale()))


if __name__ == "__main__":
    main()
