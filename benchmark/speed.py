"""Machine-speed reference for the benchmark's timings.

Shared machines change speed by a third within a minute; an identical
operation measured in six-second blocks spread that much.  The benchmark
therefore runs a fixed reference computation (exact Fraction arithmetic,
like the program's own) between operations, REF_BURST times in a row at
least every REF_EVERY_S seconds and after every longer operation, and
reports timings in reference seconds: wall seconds times REF_NOMINAL_S over
the median reference sample of the run.  The median of the run, not the
nearest sample, because one sample taken just after a large operation can
read half again as long.  Set-up, timed before the loop, is scaled by the
samples taken around it instead.  On a machine where the reference takes
REF_NOMINAL_S, reference seconds are wall seconds.  The program never runs
the reference, so a faster program reads faster by the same factor.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

REF_NOMINAL_S = 0.017
REF_EVERY_S = 1.0
REF_BURST = 3


def reference_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 9000):
        total += Fraction(i % 97, 1 + i % 13)
    return total


class Speedometer:
    """Reference samples taken during a run, and scaling by them."""

    def __init__(self):
        self.durations: list[float] = []
        self._last_end = None

    def sample(self) -> None:
        # A collection of the program's heap must not land in the sample.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            reference_work()
            self._last_end = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.durations.append(self._last_end - start)

    def burst(self) -> None:
        for _ in range(REF_BURST):
            self.sample()

    def maybe_sample(self) -> None:
        if self._last_end is None or perf_counter() - self._last_end >= REF_EVERY_S:
            self.burst()

    def factor(self, first: int = 0) -> float:
        """Reference seconds per wall second, from samples `first` onwards."""
        return REF_NOMINAL_S / statistics.median(self.durations[first:])
