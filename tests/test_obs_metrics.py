"""The metrics registry: exact quantiles, instruments, snapshots."""

import threading

import pytest

from repro.obs import Counter, Gauge, Histogram, Metrics, quantile


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


class TestInstruments:
    def test_counter_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_gauge_keeps_last_value(self):
        gauge = Gauge("g")
        assert gauge.value is None
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5

    def test_histogram_summary_and_quantiles_are_exact(self):
        histogram = Histogram("h")
        for value in (5, 1, 3, 2, 4):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == 15
        assert histogram.quantile(0.5) == 3
        summary = histogram.summary()
        assert summary == {
            "count": 5, "sum": 15, "min": 1, "max": 5,
            "p50": 3, "p90": 5, "p99": 5,
        }

    def test_empty_histogram_summary(self):
        assert Histogram("h").summary() == {"count": 0, "sum": 0}

    def test_histogram_values_returns_copy_in_arrival_order(self):
        histogram = Histogram("h")
        histogram.observe(2)
        histogram.observe(1)
        values = histogram.values()
        values.append(99)
        assert histogram.values() == [2, 1]


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = Metrics()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")

    def test_name_cannot_change_kind(self):
        registry = Metrics()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.histogram("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_shape(self):
        registry = Metrics()
        registry.counter("c").inc(2)
        registry.gauge("g").set(9)
        registry.histogram("h").observe(1.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 9}
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_thread_aggregation(self):
        # Counters and histograms are shared across threads; totals add up.
        registry = Metrics()
        counter = registry.counter("n")
        histogram = registry.histogram("h")

        def work():
            for i in range(500):
                counter.inc()
                histogram.observe(i)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 2000
        assert histogram.count == 2000
