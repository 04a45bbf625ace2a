"""Timing scaled to a reference host speed.

The host this benchmark was built on is a shared 2-vCPU VM whose CPU speed
drifts by up to 2x within minutes as other tenants load the machine: the
same single-fault campaign took 1.5 s to 3.9 s within six minutes, while the
ratio of its time to that of a fixed pure-Python kernel stayed within a few
percent.  Raw times therefore measure the neighbours as much as the program.

``Sampler.time`` runs a function while a SIGALRM timer interrupts it every
``PERIOD_S`` seconds to time ``kernel()``.  Each stretch of work between two
samples is scaled by ``REFERENCE_S / kernel time`` of the sample that ends
it, which gives seconds at the speed where the kernel takes ``REFERENCE_S``.
The kernel's own time is excluded from both the raw and the scaled time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.2
REFERENCE_S = 0.010


def kernel() -> int:
    """Fixed interpreter work resembling the package's inner loops: integer
    bit operations, small-dict stores and tuple hashing."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        x = (i * 2654435761) & 0xFFFFF
        acc ^= (x >> 3) & (x << 2)
        table[x & 0x3FF] = acc
        acc += hash((x, acc & 7)) & 1
        acc += (x & i).bit_count()
    return acc


class Sampler:
    def __init__(self):
        self.samples: list[float] = []   # every kernel time taken, in seconds
        self._raw = self._scaled = self._last = 0.0

    def _tick(self, *_signal) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.samples.append(end - start)
        self._raw += start - self._last
        self._scaled += (start - self._last) * REFERENCE_S / (end - start)
        self._last = end

    def probe(self, n: int = 25) -> float:
        """Median time of ``n`` back-to-back kernel runs."""
        times = []
        for _ in range(n):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        return statistics.median(times)

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (result, raw seconds, scaled seconds)."""
        self._raw = self._scaled = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._tick()
        return result, self._raw, self._scaled
