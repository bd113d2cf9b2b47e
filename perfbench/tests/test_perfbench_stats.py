import math

import pytest

from stats import spread, tail_percentile


def test_tail_percentile_hundred_samples_is_p90():
    samples = list(range(100, 0, -1))
    p, value = tail_percentile(samples)
    assert p == 90
    assert value == 90
    assert sum(1 for s in samples if s > value) == 10


@pytest.mark.parametrize("n", [11, 12, 19, 20, 37, 99, 100, 101, 250, 1000])
def test_tail_percentile_keeps_ten_beyond_and_is_highest(n):
    samples = [float(i) for i in range(n)]
    p, value = tail_percentile(samples)
    assert sum(1 for s in samples if s > value) >= 10
    # one percentile higher would leave fewer than ten samples beyond
    rank_up = math.ceil(n * (p + 1) / 100)
    assert n - rank_up < 10


def test_tail_percentile_needs_eleven_samples():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile([3.0, 1.0, 2.0] + [0.5] * 8) == (9, 0.5)


def test_spread_is_interquartile_share_of_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    # exclusive quartiles of 1..9 are 2.5 and 7.5 around the median 5
    assert spread([float(v) for v in range(1, 10)]) == pytest.approx(1.0)
