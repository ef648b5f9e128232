"""A reference kernel that tracks the host's speed, sampled during blocks.

The benchmark's host shares its cores with other tenants, and its speed
drifts by 15-25% over tens of seconds; CPU time tracks wall time, so the
drift is contention below the container, not scheduling.  A
:class:`Sampler` runs a fixed kernel from a ``SIGALRM`` handler every
``period`` seconds while a block runs, so the kernel's samples interleave
with the program's work and see the same contention.  A block's times
are then scaled by ``REFERENCE_S / median sample`` after removing the
share of the block the samples themselves took.  The kernel mixes
``heapq`` tuple traffic (the DES event queue's pattern) with small numpy
calls (the batched race's pattern) and uses nothing from ``src/``, so a
change to the program cannot move it.  At ~6 ms per sample every 0.2 s
the samples take about 3% of a block.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

import numpy as np

#: Median kernel time on the reference machine: a 2-vCPU Xeon at 2.1 GHz,
#: Python 3.11, numpy 2.4, over a quiet stretch.  Normalised times read
#: as seconds on that machine.
REFERENCE_S = 0.006
#: Wall seconds between kernel samples.
PERIOD_S = 0.2

_ARRAY = np.random.default_rng(0).random(2000)


def _kernel() -> None:
    heap: list = []
    for i in range(4000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
    while heap:
        heapq.heappop(heap)
    for _ in range(50):
        np.argsort(_ARRAY)
        (_ARRAY * 2.0 + 1.0).sum()
        np.maximum(_ARRAY, 0.5)


def scale_now(samples: int = 25) -> float:
    """Reference over the median of ``samples`` back-to-back kernel runs."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)


class Sampler:
    """Times the kernel every ``PERIOD_S`` wall seconds inside its context."""

    def __init__(self) -> None:
        self.starts: list = []
        self.durations: list = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normaliser(self, start: float, end: float) -> float:
        """Factor turning wall seconds in ``[start, end]`` into reference
        seconds of program work: drops the samples' own share, then scales
        by the reference over the median sample."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        window = self.durations[lo:hi]
        if not window:  # only the smoke shapes run blocks this short
            return 1.0
        busy = 1.0 - sum(window) / (end - start)
        return busy * REFERENCE_S / statistics.median(window)
