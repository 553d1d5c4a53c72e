"""Small statistics helpers shared by the workloads.

Timings are reported as a median plus the highest tail percentile that
still has at least ten samples beyond it, together with the sample
count, so a p99 is never quoted from a few hundred samples.
"""

from __future__ import annotations

import math

#: Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (numpy's default rule)."""
    values = sorted(samples)
    if not values:
        raise ValueError("percentile of an empty sample")
    rank = (len(values) - 1) * q / 100.0
    low = math.floor(rank)
    frac = rank - low
    if frac == 0:
        return values[low]
    return values[low] + (values[min(low + 1, len(values) - 1)] - values[low]) * frac


def median(samples) -> float:
    return percentile(samples, 50.0)


def tail(samples) -> dict:
    """The highest percentile with ``MIN_BEYOND`` samples beyond it.

    Returns ``{"p": q, "value": v, "count": n}``; ``p`` is ``None`` when
    the sample is too small for even the median to qualify.
    """
    n = len(samples)
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND:
            return {"p": q, "value": percentile(samples, q), "count": n}
    return {"p": None, "value": None, "count": n}


def union_length(intervals) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    covered = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered
