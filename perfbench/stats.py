"""Order statistics used for every reported timing."""

from __future__ import annotations

import statistics

MIN_BEYOND = 10


def tail(values):
    """The highest percentile that has at least ten samples beyond it.

    By the nearest-rank rule that is the sample with exactly ten larger
    ones, at percentile 100 (n - 10) / n.  Below twenty samples that
    percentile would fall under the median, so the median is returned
    instead and ``beyond`` shows that the tail is not resolved.  Returns
    ``(percentile, value, samples, beyond)``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * MIN_BEYOND:
        middle = statistics.median(ordered)
        return 50.0, middle, n, sum(v > middle for v in ordered)
    rank = n - MIN_BEYOND
    return 100.0 * rank / n, ordered[rank - 1], n, MIN_BEYOND


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
