"""Host-speed calibration: timings in seconds of the reference host.

The benchmark runs on a few cores of a shared host whose speed drifts:
a fixed pure-Python loop takes up to 1.5x longer over spans of tens of
seconds, on wall and CPU clocks alike, so raw timings of the same code
spread by 10-30% (IQR over median of 10 runs) from one run to the next.  The drift is common to all
pure-Python work, so the benchmark times a fixed kernel (:func:`kernel`,
stdlib only, nothing from the program) next to every measurement and
rescales the measurement by ``REFERENCE_S / kernel time``: the result
reads as seconds on a host that runs the kernel in ``REFERENCE_S``.

A change to the program moves the measurement and not the kernel, so it
shows in full; only the host's speed cancels.  The raw seconds and the
kernel's own time are printed on standard error with each run.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import statistics
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: the kernel's time on the reference host (2 vCPU, CPython 3.11): the
#: fastest of :data:`REPEATS` calls, as :func:`sample` measures it
REFERENCE_S = 0.0015
#: kernel calls per calibration point; the fastest is kept, which drops
#: a call the scheduler interrupted
REPEATS = 3
#: CPU seconds between a :class:`Ticker`'s points
TICK_S = 0.25


def kernel() -> int:
    """A fixed mix of pure-Python work: an integer loop, then hashing
    tuples into a dict larger than the core's private caches and
    reading it back."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    index = {}
    for i in range(3000):
        index[(i * 7919) % 100003, i & 15] = (i, i & 255)
    for value in index.values():
        total += value[0]
    return total


def sample() -> float:
    """One calibration point: the kernel's fastest of ``REPEATS``
    calls, in seconds.  The collector is held off meanwhile: how long a
    collection takes depends on the heap the measured code left, not on
    the host."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(REPEATS):
            started = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - started)
    finally:
        if collecting:
            gc.enable()
    return best


class Ticker:
    """Calibration points taken *during* a long measurement.

    A verification can run for seconds, over which the host's speed
    moves; points before and after it miss that.  While active, the
    ticker takes a point from a ``SIGVTALRM`` handler every
    :data:`TICK_S` of CPU time.  The handler runs on the main thread
    between bytecodes, so it measures the speed the measured code is
    getting; the time it takes is kept in :attr:`spent` to be taken out
    of the measurement."""

    def __init__(self) -> None:
        self.points: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        self.points.append(sample())
        self.spent += time.perf_counter() - started

    def __enter__(self) -> "Ticker":
        self._previous = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)


def timed(call: Callable[[], T],
          tick: bool = True) -> Tuple[T, float, float, float]:
    """Run ``call`` between two calibration points, and with a
    :class:`Ticker` unless ``tick`` is false.

    Returns ``(result, scaled seconds, raw seconds, kernel seconds)``:
    the raw seconds leave out the ticker's own time, the kernel seconds
    are the median of every point, and the scaled seconds are the raw
    ones times ``REFERENCE_S / kernel seconds``."""
    before = sample()
    ticker = Ticker()
    with ticker if tick else contextlib.nullcontext():
        started = time.perf_counter()
        result = call()
        raw = time.perf_counter() - started
    raw -= ticker.spent
    kernel_s = statistics.median([before, *ticker.points, sample()])
    return result, raw * REFERENCE_S / kernel_s, raw, kernel_s
