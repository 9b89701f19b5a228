"""The benchmark's own arithmetic: percentiles and run-to-run spreads.

Every timing the benchmark reports is a summary of many samples:

* the median is :func:`statistics.median` (mean of the two middle values
  for an even count);
* a tail percentile uses nearest-rank indexing and is reported only when
  the run holds at least :data:`MIN_BEYOND` samples strictly beyond it —
  a p99 over 500 samples would be the fifth-largest value, i.e. noise;
* the run-to-run spread of a metric is the inter-quartile range of its
  per-run values (``statistics.quantiles(values, n=4)``) divided by their
  median.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Samples a tail percentile needs beyond it before it is reported.
MIN_BEYOND = 10


def rank_index(count: int, q: float) -> int:
    """0-based nearest-rank index of quantile *q* in *count* sorted values."""
    if count <= 0:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    return max(0, math.ceil(q * count) - 1)


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* sorted samples lie strictly above the q-rank."""
    return count - 1 - rank_index(count, q)


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank q-percentile, or ``None`` when the tail is too thin."""
    if not values or samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return sorted(values)[rank_index(len(values), q)]


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def relative_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median over per-run values, as the acceptance check
    computes it; 0.0 for a metric whose median is 0."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0
