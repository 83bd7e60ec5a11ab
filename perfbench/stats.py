"""Order statistics with the benchmark's tail rule.

A reported percentile is the requested one, or, when the sample is too
small for it, the highest percentile that still has at least
``MIN_BEYOND`` samples beyond it. A tail value resting on fewer than ten
samples would move with a single outlier.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

#: Samples that must lie strictly above a reported percentile.
MIN_BEYOND = 10


def tail_percentile(
    samples: Sequence[float], wanted: float
) -> Tuple[float, float, int]:
    """Nearest-rank percentile capped by the ten-beyond rule.

    Returns ``(value, percentile_used, sample_count)``. Raises
    ``ValueError`` when no percentile has ten samples beyond it.
    """
    if not 0.0 < wanted < 1.0:
        raise ValueError(f"percentile {wanted!r} outside (0, 1)")
    count = len(samples)
    if count <= MIN_BEYOND:
        raise ValueError(
            f"{count} samples: no percentile has {MIN_BEYOND} beyond it"
        )
    ordered = sorted(samples)
    rank = min(math.ceil(wanted * count) - 1, count - 1 - MIN_BEYOND)
    rank = max(rank, 0)
    return ordered[rank], (rank + 1) / count, count


def median(samples: Sequence[float]) -> float:
    """The median (mean of the middle two for an even count)."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0
