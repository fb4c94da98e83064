import pytest

from bench.stats import TooFewSamples, percentile, percentile_or_none, relative_spread


def test_percentile_needs_ten_samples_beyond_it():
    sample = list(range(999))
    with pytest.raises(TooFewSamples):
        percentile(sample, 0.99)  # 9.99 samples beyond
    assert percentile(list(range(1000)), 0.99) == 989
    assert percentile_or_none(list(range(5000)), 0.999) is None
    assert percentile_or_none(list(range(10_000)), 0.999) == 9989


def test_median_needs_ten_samples_on_each_side():
    assert percentile_or_none(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == 9


def test_relative_spread_is_iqr_over_median():
    assert relative_spread([10.0] * 10) == 0.0
    assert relative_spread([1.0]) is None
    values = [float(v) for v in range(1, 11)]
    assert relative_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
