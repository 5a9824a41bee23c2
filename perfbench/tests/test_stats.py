import math
import statistics

import pytest

import stats


def brute_force_tail(values):
    """Scan the percentiles from 50 up in steps of 1/1000 for the highest one
    whose nearest-rank sample has at least ten samples strictly beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for step in range(50000, 100001):
        p = step / 1000
        rank = max(1, math.ceil(p / 100 * n - 1e-9))
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


@pytest.mark.parametrize("n", [20, 21, 37, 100, 250, 1000, 1017])
def test_tail_matches_brute_force(n):
    values = [float((7 * v) % n) + v / 1000 for v in range(n)]  # distinct, unsorted
    p, value, count, beyond = stats.tail(values)
    best_p, best_value = brute_force_tail(values)
    assert value == best_value
    assert p == pytest.approx(best_p, abs=1e-3)
    assert (count, beyond) == (n, 10)
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize("n", [1, 2, 5, 10, 19])
def test_short_runs_fall_back_to_the_median(n):
    values = [float(v * v) for v in range(n)]
    p, value, count, beyond = stats.tail(values)
    assert (p, value, count) == (50.0, statistics.median(values), n)
    assert beyond == sum(v > value for v in values) < 10
    assert brute_force_tail(values) is None


def test_spread_is_quartile_distance_over_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
