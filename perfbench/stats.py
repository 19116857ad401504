"""Order statistics used by the benchmark: medians and the tail percentile."""

from __future__ import annotations

import math

#: Percentiles the tail may be reported at, from the widest to the narrowest.
TAIL_LADDER = (50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9, 99.95, 99.99)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values):
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    n = len(xs)
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100] (numpy's default rule)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples
    strictly beyond it, or None when even the median has fewer."""
    best = None
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = q
    return best


def tail(values):
    """(percentile, value) of the tail of one sample set.

    When the set is too small for any ladder percentile (fewer than 20
    samples) the tail is the slowest sample, reported as percentile 100.
    """
    q = tail_percentile(len(values))
    if q is None:
        return 100.0, max(values)
    return q, percentile(values, q)
