"""The machine's speed, sampled around and during timed calls.

Each vCPU of the shared 2-vCPU machine the benchmark was tuned on
switches, every few seconds and independently of the other, between a
fast and a slow state about 1.6x apart (a fixed pure-Python loop pinned
to one vCPU took about 3.2 ms or 4.5-5.5 ms), and how long it spends in
each changes over minutes.  Raw wall times of runs minutes apart
therefore spread past any useful bound.  A run times a fixed pure-Python
kernel, which belongs to the benchmark and not to the program, and
scales each call's wall time by the speed the kernel saw:

* around a call that runs in this thread, the kernel times on each side
  of it, one for a short call and ``WINDOW`` for a sweep or verify:
  ``scaled = wall * REFERENCE_S / median(kernel times)``.  The states
  switch quickly enough that the nearest samples scale a short call best
  (per-call spread of a repeated ``curve`` 0.26 raw, 0.09 scaled by one
  sample on each side, 0.12 by ten);
* during a call that runs in pool workers (``--jobs`` > 1), while this
  thread only waits: a sampler thread runs the kernel every
  ``PERIOD_S``, and ``scaled = wall * REFERENCE_S * mean(1 / kernel
  time)``, the mean speed over the call.

Kernel times are thread CPU time, so waiting for a vCPU the workers hold
is not counted as slowness.  ``REFERENCE_S`` is the kernel's median time
on that machine, so there a scaled time reads like a wall time.  The
kernel never runs inside the program, so the program cannot change what
it measures, except through work it leaves running after a call returns.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager

REFERENCE_S = 0.0045  # median kernel() time on a 2-vCPU x86-64 VM, Python 3.11.7
WINDOW = 10  # kernel samples on each side of a long call in this thread
PERIOD_S = 0.1  # sampling period during a pool call


def kernel() -> int:
    """Fixed integer and list work, like the program's residue-table loops."""
    p = 211
    table = [0] * p
    for k in range(1, 121):
        for i in range(p):
            table[(k * i * i + i) % p] += 1 if i & 1 else -1
    return sum(table)


def timed_kernel() -> float:
    """Thread CPU seconds of one kernel() run."""
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


class Speedometer:
    """Kernel times in the order taken; a call is placed between two of them."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> int:
        """Time the kernel ``n`` times; return the number of samples so far."""
        self.samples.extend(timed_kernel() for _ in range(n))
        return len(self.samples)

    def scale(self, at: int, width: int) -> float:
        """Factor for a call made after sample ``at - 1`` and before sample ``at``,
        from ``width`` samples on each side of it."""
        window = self.samples[max(0, at - width):at + width]
        return REFERENCE_S / statistics.median(window)

    @staticmethod
    @contextmanager
    def during() -> Iterator[list[float]]:
        """Sample the kernel every ``PERIOD_S`` in a thread while the block runs."""
        samples: list[float] = []
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(PERIOD_S):
                samples.append(timed_kernel())

        sampler = threading.Thread(target=loop, name="speed-sampler", daemon=True)
        sampler.start()
        try:
            yield samples
        finally:
            stop.set()
            sampler.join()

    @staticmethod
    def mean_scale(samples: list[float]) -> float:
        """Factor for a call during which ``samples`` were taken."""
        return REFERENCE_S * statistics.fmean(1 / k for k in samples)
