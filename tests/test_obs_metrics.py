"""Exact statistics: nearest-rank quantiles and the one summary digest."""

import pytest

from repro.obs import quantile, summarize


class TestQuantile:
    def test_matches_nearest_rank_definition_exhaustively(self):
        # Nearest-rank: the element at rank ceil(q * n), 1-based.
        import math

        for n in (1, 2, 3, 5, 10, 17, 100):
            values = list(range(n))
            for q in (0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
                rank = max(1, math.ceil(q * n))
                assert quantile(values, q) == values[rank - 1], (n, q)

    def test_extremes_are_min_and_max(self):
        values = [3, 7, 11, 20]
        assert quantile(values, 0.0) == 3
        assert quantile(values, 1.0) == 20

    def test_exact_not_interpolated(self):
        # p50 of an even-length list is a data point, never an average.
        assert quantile([1, 100], 0.5) == 1
        assert quantile([1, 2, 100], 0.5) == 2

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1], 1.5)
        with pytest.raises(ValueError):
            quantile([1], -0.1)


class TestSummarize:
    def test_summary_and_quantiles_are_exact(self):
        assert summarize([5, 1, 3, 2, 4]) == {
            "count": 5, "sum": 15, "min": 1, "max": 5,
            "p50": 3, "p90": 5, "p99": 5,
        }

    def test_empty_summary(self):
        assert summarize([]) == {"count": 0, "sum": 0}

    def test_accepts_any_iterable(self):
        assert summarize(value for value in (0.5, 0.25))["p50"] == 0.25
