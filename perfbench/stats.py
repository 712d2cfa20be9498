"""Summary statistics for the benchmark's samples."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolating linearly between
    closest ranks (NumPy's default ``linear`` method)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values: each sample weighs the same
    in ratio terms, so a 2x on a short case moves it as much as a 2x on
    a long one."""
    if not values:
        raise ValueError("geomean of no values")
    if min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
