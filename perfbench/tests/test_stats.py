"""The reporting rules: medians always, a percentile only with at
least ten samples beyond it."""

import pytest

from perfbench import stats


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 95) == pytest.approx(95.05)
    assert stats.percentile([3.0], 95) == 3.0


def test_p95_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(180)), 95) is None  # 9 beyond
    assert stats.beyond(list(range(180)), stats.percentile(range(180), 95)) == 9
    assert stats.tail_percentile(list(range(200)), 95) == pytest.approx(189.05)
    assert stats.beyond(list(range(200)), 189.05) == 10


def test_ties_at_the_top_do_not_count_as_beyond():
    # 300 samples, but the top 20 are equal to the p95 value itself.
    values = [1.0] * 280 + [2.0] * 20
    assert stats.percentile(values, 95) == 2.0
    assert stats.tail_percentile(values, 95) is None


def test_failures_count_as_beyond_any_limit():
    values = [1.0] * 190 + [float("inf")] * 10
    assert stats.tail_percentile(values, 95) == float("inf")
    assert stats.tail_percentile([1.0] * 199 + [float("inf")], 95) is None
    assert stats.percentile([float("inf")] * 3, 50) == float("inf")


def test_median_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        stats.median([])


def test_median_by_part_sums_each_parts_median():
    parts = {"a": [1.0, 9.0, 2.0], "b": [10.0, 11.0, 30.0]}
    assert stats.median_by_part(parts) == 2.0 + 11.0
    # One slow repeat of every part, in different operations, is dropped.
    assert stats.median_by_part({"a": [1.0, 1.0, 5.0], "b": [5.0, 2.0, 2.0]}) == 3.0
    with pytest.raises(ValueError):
        stats.median_by_part({})
