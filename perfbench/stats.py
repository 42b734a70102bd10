"""Summary statistics with the benchmark's reporting rules.

A timing is reported as its median with its sample count.  A higher
percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it; with fewer, the tail is noise and the value is withheld.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie strictly beyond a percentile for it to be
#: reported.
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def median_by_part(samples: dict) -> float:
    """The latency of an operation made of parts (one list of samples
    per part), built part by part: the sum of each part's median.

    A slow spell of the host lasts a few seconds and slows the parts
    that run during it; taking each part's median over the repeats
    drops those, where the median of whole operations keeps every
    operation the spell touched."""
    if not samples:
        raise ValueError("median of no parts")
    return sum(median(values) for values in samples.values())


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100) with linear interpolation
    between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == ordered[lo]:  # also keeps inf - inf out
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(values, threshold: float) -> int:
    """Samples strictly greater than ``threshold``."""
    return sum(1 for v in values if v > threshold)


def tail_percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """The ``q``-th percentile, or None when fewer than ``min_beyond``
    samples lie beyond it (a failure counts as beyond any limit)."""
    values = list(values)
    if not values:
        return None
    p = percentile(values, q)
    # Failed requests enter as inf: a tail of failures is reported as
    # missing every limit, though nothing lies beyond inf.
    return p if math.isinf(p) or beyond(values, p) >= min_beyond else None

