"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics


def tail_percentile(samples, beyond: int = 10):
    """Highest integer percentile p with at least `beyond` samples above it.

    The p-th percentile is the nearest-rank value sorted[ceil(n p / 100) - 1].
    Returns (p, value), or None when fewer than beyond + 1 samples exist.
    """
    n = len(samples)
    if n < beyond + 1:
        return None
    # p = floor(100 (n - beyond) / n) gives rank <= n - beyond; p >= 1
    # (so rank >= 1) whenever beyond < 100.
    p = (100 * (n - beyond)) // n
    rank = -(-n * p // 100)
    return p, sorted(samples)[rank - 1]


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
