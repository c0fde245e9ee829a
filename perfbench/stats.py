"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math

# Percentiles the tail report may use, highest first.
TAIL_CHOICES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def quantile(values, p: float) -> float:
    """p-th percentile (0..100) with linear interpolation between order statistics."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 50.0)


def tail_percentile(samples: int, beyond: int = 10) -> float | None:
    """Highest percentile in TAIL_CHOICES with at least ``beyond`` samples above it."""
    for p in TAIL_CHOICES:
        if round(samples * (100.0 - p), 6) >= 100.0 * beyond:
            return p
    return None
