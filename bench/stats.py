"""Order statistics shared by the runner, the comparison tool and the tests."""

from __future__ import annotations

import statistics

# A tail percentile is reported only where at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def tail_percentile(samples, q: int = 90) -> tuple[float, float]:
    """The q-th percentile (nearest rank), lowered until TAIL_SAMPLES samples lie above it.

    Returns (percentile actually used, value).  Needs more than TAIL_SAMPLES samples.
    """
    n = len(samples)
    if n <= TAIL_SAMPLES:
        raise ValueError(f"need more than {TAIL_SAMPLES} samples for a tail percentile, got {n}")
    rank = min((q * n + 99) // 100, n - TAIL_SAMPLES)
    return 100 * rank / n, sorted(samples)[rank - 1]


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
