"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: p95 has at least ten samples beyond it only from this many samples on.
P95_MIN_SAMPLES = 200


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def p95_valid(samples: int) -> bool:
    return samples >= P95_MIN_SAMPLES


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values; 0.0 if any is not positive."""
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
