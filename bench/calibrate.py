"""Calibration clock: cancels machine-load drift out of the timings.

On a shared host the same deterministic call can take 0.7x to 1.4x its usual
time from one few-second window to the next, because of load from other
tenants. The timed run therefore runs a small fixed kernel, pure-Python
arithmetic plus small numpy array work like the solver's, after every call.
Each call and solve time it reports is scaled by
REFERENCE_S / (median kernel time around that measurement): it is in seconds
of a machine on which the kernel takes REFERENCE_S. Raw times are printed
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the machine the bounds were set on (2-core Xeon VM,
# Python 3.11, numpy 2.4); see README.md.
REFERENCE_S = 0.0020
WINDOW = 4   # samples on each side of a measurement that set its scale


def kernel() -> float:
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    a = np.full((30, 10), 0.5)
    for _ in range(100):
        a = np.tanh(a * 0.9 + 0.01)
        total += float((a.T @ a)[0, 0])
    return total


class Clock:
    """Kernel timings taken along a run, in order."""

    def __init__(self):
        self.samples = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def scale(self, index=None) -> float:
        """REFERENCE_S over the median kernel time near sample `index`
        (over the whole run when index is None)."""
        near = (self.samples if index is None else
                self.samples[max(0, index - WINDOW): index + WINDOW + 1])
        return REFERENCE_S / statistics.median(near)

    def recent_scale(self) -> float:
        return REFERENCE_S / statistics.median(self.samples[-(2 * WINDOW + 1):])
