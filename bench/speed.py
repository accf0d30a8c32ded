"""Correction of measured times for the machine's drifting speed.

The speed of the machine the bounds were set on drifts for seconds to
minutes at a time (measured figures in README.md), so raw op times of two
runs of the same code spread too widely for the bounds.  The client
therefore times a fixed reference kernel
between ops, about every ``SEGMENT_S`` of op time, and scales each op's
time by ``REFERENCE_S`` over the mean kernel time at both ends of its
segment.  The kernel shares no code with the library, so a change to the
library moves the corrected times in full.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from fractions import Fraction

# Corrected times read as if the kernel took exactly this long, which is
# within its range on the reference machine (README.md), so they stay close
# to raw times.
REFERENCE_S = 0.0025
SEGMENT_S = 0.05


def reference_kernel() -> int:
    """Fixed work of the kinds the library does: adjacent-swap rewriting of
    small-int words into tuple-keyed dicts of fractions, then string
    building and JSON as on the CLI; and a plain integer loop of about the
    same length.  Under the machine's drift the loop slows more than
    library code and the rest slows less, so their sum tracks library code
    better than either part alone (README.md)."""
    acc = {}
    for rep in range(6):
        word = [(i * 7 + rep) % 11 for i in range(30)]
        t = swaps = 0
        while t < len(word) - 1:
            a, b = word[t], word[t + 1]
            if a > b:
                word[t], word[t + 1] = b, a
                t = max(t - 1, 0)
                swaps += 1
            else:
                t += 1
        key = tuple(word[::4])
        acc[key] = acc.get(key, Fraction(0)) + Fraction(swaps, 3)
    for i in range(75):
        key = (i % 13, i % 7, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    text = json.dumps({",".join(map(str, k)): str(v) for k, v in acc.items()})
    words = "*".join(f"x{i % 9}^{i % 4}" for i in range(60)).split("*")
    total = 0
    for i in range(20000):
        total += i * i
    return len(json.loads(text)) + len(words) + total % 7


def reference_time() -> float:
    """One timed kernel run, with garbage collection paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples the reference kernel between ops and corrects op times by it."""

    def __init__(self):
        self._ops = 0
        self._pending = 0.0
        self._marks = [(0, reference_time())]  # (ops done, kernel seconds)

    def after_op(self, latency: float) -> None:
        self._ops += 1
        self._pending += latency
        if self._pending >= SEGMENT_S:
            self.sample()

    def sample(self) -> None:
        self._pending = 0.0
        self._marks.append((self._ops, reference_time()))

    @staticmethod
    def correct(seconds: float, kernel_s: float) -> float:
        return seconds * REFERENCE_S / kernel_s

    def scale(self, latencies):
        """Corrected copies of all latencies so far; call ``sample`` first."""
        out = []
        for (start, ref0), (end, ref1) in zip(self._marks, self._marks[1:]):
            kernel_s = (ref0 + ref1) / 2
            out += [self.correct(t, kernel_s) for t in latencies[start:end]]
        return out

    def median_factor(self) -> float:
        return statistics.median(REFERENCE_S / ref for _, ref in self._marks)
