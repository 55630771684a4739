"""The benchmark's clock and its reference loop.

On a shared 2-vCPU virtual machine (2.1 GHz) the time of a fixed loop
differs by up to 1.9x between half-second windows, and drifts in phases of
10 to 30 seconds, so wall times of whole runs spread by about 20%.  The benchmark therefore reports costs: an operation's wall time
over the mean time of a fixed pure-Python loop sampled before, after and,
every REFERENCE_INTERVAL_S, during it.  The quotient cancels most of the
drift; a change to the program still moves it.

The samples taken during an operation come from a SIGALRM interval timer
in the benchmark's own thread, so no second thread or process competes
for the CPU.  ``clock`` leaves out the time spent in them.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
from time import perf_counter

#: iterations of the reference loop; about 1.35 milliseconds of pure Python
REFERENCE_ITERATIONS = 2000

#: seconds between two reference samples the timer takes during operations
REFERENCE_INTERVAL_S = 0.1

_spent_s = 0.0  # seconds the timer has spent in reference samples
_samples: list[float] = []


def clock() -> float:
    """``perf_counter`` less the time the timer spent in reference samples."""
    return perf_counter() - _spent_s


class _Pair:
    """Gaussian integer, the reference loop's small object."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def times(self, other: "_Pair") -> "_Pair":
        return _Pair(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)


def _reference_loop() -> float:
    """Wall time of the fixed loop, with the garbage collector off: a
    collection in the loop would scan the program's whole heap.

    The loop does what the package's exact polynomial arithmetic does:
    it allocates small objects, calls methods, multiplies integers and
    builds tuples and lists.  The drift slows such code more than plain
    integer arithmetic: over 150 s on that machine, the quotient of
    ``riley_polynomial`` by this loop varied from one 40-sample window to
    the next by 2.5% (coefficient of variation), and by 6.5% when the loop
    was ``acc += i * i % 7``.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc, step = _Pair(1, 0), _Pair(3, 1)
        kept = []
        for i in range(REFERENCE_ITERATIONS):
            acc = acc.times(step) if i % 16 else _Pair(1, i)
            kept.append((acc.re, acc.im, i)[1:])
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def reference_s() -> float:
    """Median of three runs of the reference loop; one run of a
    millisecond can catch a stall of the host."""
    return statistics.median(_reference_loop() for _ in range(3))


def _on_alarm(signum, frame) -> None:
    global _spent_s
    start = perf_counter()
    _samples.append(_reference_loop())
    _spent_s += perf_counter() - start


@contextlib.contextmanager
def sampling():
    """Let the interval timer take reference samples while the block runs."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def around(fn):
    """``fn()``, and the mean reference time over it: the samples taken
    just before and after it and those the timer took while it ran."""
    _samples.clear()
    before = reference_s()
    result = fn()
    during = list(_samples)
    return result, statistics.fmean([before, *during, reference_s()])
