"""ServiceMetrics latency windows: bounded memory, exact percentiles.

Pins the sliding-window contract: latency samples per request kind live in a
fixed-size ring (``max_samples``), so a long-lived server computes
percentiles over *recent* traffic in bounded memory, while the request
counters keep counting every recording ever made.
"""

import pytest

from repro.service.server import ServiceMetrics


class TestBoundedWindow:
    def test_window_evicts_oldest_samples(self):
        metrics = ServiceMetrics(max_samples=4)
        for value in range(1, 101):
            metrics.record("query", float(value))
        # Only the last four samples (97..100) remain visible.
        assert metrics.percentile("query", 1) == 97.0
        assert metrics.percentile("query", 100) == 100.0

    def test_counters_outlive_the_window(self):
        metrics = ServiceMetrics(max_samples=4)
        for value in range(100):
            metrics.record("query", 0.001)
        assert metrics.as_dict()["query_count"] == 100

    def test_kinds_have_independent_windows(self):
        metrics = ServiceMetrics(max_samples=2)
        metrics.record("query", 1.0)
        metrics.record("update", 9.0)
        metrics.record("query", 2.0)
        metrics.record("query", 3.0)
        assert metrics.percentile("query", 100) == 3.0
        assert metrics.percentile("query", 1) == 2.0
        assert metrics.percentile("update", 50) == 9.0


class TestPercentileSemantics:
    def test_exact_order_statistics(self):
        metrics = ServiceMetrics()
        for value in range(1, 101):  # 1..100, shuffled insert order is moot
            metrics.record("query", float(value))
        # Nearest-rank definition: rank = ceil(p/100 * n).
        assert metrics.percentile("query", 50) == 50.0
        assert metrics.percentile("query", 95) == 95.0
        assert metrics.percentile("query", 99) == 99.0
        assert metrics.percentile("query", 100) == 100.0

    def test_single_sample_is_every_percentile(self):
        metrics = ServiceMetrics()
        metrics.record("query", 0.25)
        for percent in (1, 50, 99, 100):
            assert metrics.percentile("query", percent) == 0.25

    def test_unseen_kind_reports_zero(self):
        assert ServiceMetrics().percentile("nope", 99) == 0.0

    def test_as_dict_percentiles_use_the_window(self):
        metrics = ServiceMetrics(max_samples=2)
        metrics.record("query", 1.0)
        metrics.record("query", 2.0)
        metrics.record("query", 4.0)
        summary = metrics.as_dict()
        assert summary["query_p50_ms"] == pytest.approx(2000.0)
        assert summary["query_p99_ms"] == pytest.approx(4000.0)
        # The counter still reflects all three recordings.
        assert summary["query_count"] == 3
