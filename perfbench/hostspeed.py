"""The host's speed, timed on fixed code of the benchmark's own.

On a shared host the processor itself slows when neighbours are busy:
the same pure-Python code runs up to twice as slow for seconds at a
time, and CPU time tracks wall time, so the slowdown cannot be told
apart by the clock the program is timed with.  A run of 40 s averages
too few of these periods to hold still from run to run.

So every workload times a fixed reference pass between its operations
(never inside them).  The pass does the kinds of work msetgray does:
method calls, attribute and list accesses on a small bounded vector,
tuple building and dict stores; it imports nothing from msetgray, so no
change to the program can move it, and it runs with the garbage
collector off, so the program's heap cannot either.  A round's
*slowness* is its mean pass time over NOMINAL_S (the slowest tenth of
the passes left out: a pass the scheduler interrupts reads ten times its
length); the workloads divide the round's timings by it, which states
them at the reference speed.
The raw figures and every round's slowness go to the result file.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Median pass time on the development host (2 shared vCPUs, CPython
# 3.11.7).  It only sets the scale: any constant gives the same ratios.
NOMINAL_S = 175e-6
PASSES = 4  # passes per probe
PROBE_EVERY_S = 0.01  # at most one probe per this much time


class _Counter:
    """A vector of bounded counters stepped in place."""

    __slots__ = ("a", "cap", "steps")

    def __init__(self, n: int):
        self.a = [0] * n
        self.cap = [3] * n
        self.steps = 0

    def step(self, inc: int, dec: int) -> int:
        a = self.a
        if a[inc] < self.cap[inc]:
            a[inc] += 1
        else:
            a[inc] = 0
        if a[dec] > 0:
            a[dec] -= 1
        self.steps = (self.steps + 1) & 1023
        return inc


_COUNTER = _Counter(64)


def reference_pass() -> int:
    step = _COUNTER.step
    for i in range(400):
        step(i & 63, (i * 7) & 63)
    seen = {}
    total = 0
    for i in range(300):
        key = (i & 15, i & 7)
        seen[key] = i
        total += len(key) + key[0]
    return total


class HostSpeed:
    """Times reference passes into a round's list of pass times."""

    def __init__(self):
        self.last = float("-inf")

    def probe(self, passes: list[float], count: int = PASSES) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t = perf_counter()
                reference_pass()
                passes.append(perf_counter() - t)
        finally:
            if enabled:
                gc.enable()
        self.last = perf_counter()

    def tick(self, passes: list[float]) -> None:
        """Probe, unless the last probe was less than PROBE_EVERY_S ago."""
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe(passes)


def slowness(passes: list[float]) -> float:
    """Mean pass time, the slowest tenth left out, over NOMINAL_S: 2 means
    the host ran at half the reference speed."""
    kept = sorted(passes)[: max(len(passes) * 9 // 10, 1)]
    return statistics.fmean(kept) / NOMINAL_S
