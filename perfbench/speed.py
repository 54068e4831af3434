"""Solve and set-up times scaled to a fixed machine speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts: on
the machine where it was written, interpreted Python ran up to 2x slower
for stretches of seconds to minutes, with no change to the code, while
products with a large matrix slowed less.  Raw wall times of two sets of
runs then disagree by more than any useful bound.

``Probe`` measures that drift alongside the workload.  While it is active,
a SIGALRM handler runs a fixed reference kernel every ``INTERVAL_S`` of
wall time and records how long it took.  Each workload names the kernel
that does what its own time goes to (``workloads.PROBE_KERNEL``): small
NumPy calls and plain Python, as in the solvers' inner loops, or products
with a matrix, as in a large oracle.  A kernel works on data of its own and
touches no proxcert code, so a change to proxcert does not move it.
``Probe.seconds`` turns a timed interval into seconds at the reference
speed: the interval's wall time, less the probe's own time inside it,
times the kernel's reference time over its median time in a window of
``WINDOW_S`` around the interval.  A machine that runs the kernel in its
reference time reports raw wall time.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
WINDOW_S = 0.25
_RNG = np.random.default_rng(0)
_VECTORS = _RNG.standard_normal((4, 20))
_MATRIX = _RNG.standard_normal((1000, 250))  # 2 MB, a quarter of quartic_large's A
_POINT, _SHIFT = _RNG.standard_normal(250), _RNG.standard_normal(1000)


def python_kernel() -> float:
    """Small NumPy calls and plain Python: a short projected-gradient loop, then a dict loop.

    Its vectors are copied afresh on every call, so that the samples of a run
    see many memory layouts rather than the one a process happened to get.
    """
    x, g, c, d = (row.copy() for row in _VECTORS)
    value = 0.0
    for _ in range(16):
        y = np.maximum(x - 0.1 * g, -0.5)
        value += float(np.dot(y, c)) + float(np.linalg.norm(y - d))
        x = 0.5 * (x + y)
    table = {}
    total = 0
    for i in range(300):
        total += i * 3 % 7
        table[i & 31] = total
    return value + total


def blas_kernel() -> float:
    """A quartic's value and gradient products with a matrix of its own."""
    r = _MATRIX @ _POINT - _SHIFT
    return float(np.sum(r ** 4)) + float((_MATRIX.T @ (r ** 3))[0])


# Each kernel with its reference time: about its median time inside workload
# runs on the 2-vCPU machine where the benchmark was written (Python 3.11.7,
# NumPy 2.4.6, OpenBLAS 0.3.31), so that reported times there stay close to
# wall time.
KERNELS = {
    "python": (python_kernel, 3.0e-4),
    "blas": (blas_kernel, 8.0e-4),
}


class Probe:
    """Samples a kernel's time every ``INTERVAL_S`` while active (a context manager)."""

    def __init__(self, kind: str):
        self.kernel, self.reference_s = KERNELS[kind]
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, *_signal):
        start = perf_counter()
        self.kernel()
        self.durations.append(perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "Probe":
        self.kernel()  # warm-up, not recorded
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def seconds(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end``, less the probe's own, at the reference speed."""
        inside = self.durations[bisect_left(self.starts, start):bisect_right(self.starts, end)]
        window = self.durations[
            bisect_left(self.starts, start - WINDOW_S):bisect_right(self.starts, end + WINDOW_S)
        ]
        return (end - start - sum(inside)) * self.reference_s / median(window or self.durations)

    def speed(self) -> float:
        """Median kernel time over the whole run, as a share of its reference time."""
        return median(self.durations) / self.reference_s
