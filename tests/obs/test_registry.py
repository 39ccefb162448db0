"""Unit tests for the metrics registry: recording, deltas, exposition."""

import pickle
import sys
import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsDelta,
    MetricsRegistry,
    global_registry,
    set_global_registry,
    use_registry,
)


class TestCounters:
    def test_inc_and_read(self):
        registry = MetricsRegistry()
        registry.inc("requests_total")
        registry.inc("requests_total", 2)
        assert registry.counter_value("requests_total") == 3

    def test_labels_are_distinct_series(self):
        registry = MetricsRegistry()
        registry.inc("steps_total", step="local")
        registry.inc("steps_total", 4, step="remote")
        assert registry.counter_value("steps_total", step="local") == 1
        assert registry.counter_value("steps_total", step="remote") == 4
        assert registry.counter_value("steps_total") == 0
        assert registry.counter_total("steps_total") == 5

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        registry.inc("m", a="x", b="y")
        registry.inc("m", b="y", a="x")
        assert registry.counter_value("m", b="y", a="x") == 2


class TestGauges:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.set_gauge("epoch", 1)
        registry.set_gauge("epoch", 5)
        assert registry.gauge_value("epoch") == 5.0
        assert registry.gauge_value("unseen") is None


class TestHistograms:
    def test_count_and_sum(self):
        registry = MetricsRegistry()
        for value in (0.001, 0.002, 0.2):
            registry.observe("latency_seconds", value)
        assert registry.histogram_count("latency_seconds") == 3
        assert registry.histogram_sum("latency_seconds") == pytest.approx(0.203)

    def test_percentile_estimate_lands_in_right_bucket(self):
        registry = MetricsRegistry()
        # 99 tiny observations and one slow outlier: p50 must stay in the
        # small buckets, p99+ must reach the outlier's bucket.
        for _ in range(99):
            registry.observe("t", 0.0002)
        registry.observe("t", 4.0)
        p50 = registry.percentile("t", 50)
        assert 0.0001 <= p50 <= 0.00025
        p100 = registry.percentile("t", 100)
        assert 2.5 <= p100 <= 5.0

    def test_percentile_unseen_is_zero(self):
        assert MetricsRegistry().percentile("never", 99) == 0.0

    def test_custom_buckets(self):
        registry = MetricsRegistry()
        registry.observe("sizes", 15.0, buckets=(10.0, 20.0))
        assert 10.0 <= registry.percentile("sizes", 50) <= 20.0


class TestDisabled:
    def test_disabled_registry_records_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("c")
        registry.set_gauge("g", 1.0)
        registry.observe("h", 0.5)
        assert registry.counter_value("c") == 0
        assert registry.gauge_value("g") is None
        assert registry.histogram_count("h") == 0
        assert registry.collect_delta() is None


class TestDeltaShipping:
    def test_collect_resets_and_absorb_restores(self):
        worker = MetricsRegistry()
        worker.inc("tasks_total", 3, task="local")
        worker.observe("seconds", 0.01, task="local")
        worker.set_gauge("shard_epoch", 7)

        delta = worker.collect_delta()
        assert delta is not None and not delta.is_empty
        # The worker side is clean after the collect: nothing double-ships.
        assert worker.collect_delta() is None
        assert worker.counter_value("tasks_total", task="local") == 0

        master = MetricsRegistry()
        master.inc("tasks_total", 1, task="local")
        master.absorb(delta)
        assert master.counter_value("tasks_total", task="local") == 4
        assert master.histogram_count("seconds", task="local") == 1
        assert master.gauge_value("shard_epoch") == 7.0

    def test_delta_is_picklable(self):
        registry = MetricsRegistry()
        registry.inc("c", step="local")
        registry.observe("h", 0.3)
        delta = registry.collect_delta()
        clone = pickle.loads(pickle.dumps(delta))
        target = MetricsRegistry()
        target.absorb(clone)
        assert target.counter_value("c", step="local") == 1
        assert target.histogram_count("h") == 1

    def test_absorb_is_exact_vs_direct_recording(self):
        """Split recording across N 'workers' == recording directly (the
        Network.absorb() exactness property the executor layer relies on)."""
        direct = MetricsRegistry()
        sharded = MetricsRegistry()
        observations = [0.0003, 0.004, 0.004, 0.09, 1.7, 0.00005]
        for i, value in enumerate(observations):
            direct.inc("ops_total", kind="query")
            direct.observe("op_seconds", value)
        for chunk in (observations[:2], observations[2:5], observations[5:]):
            worker = MetricsRegistry()
            for value in chunk:
                worker.inc("ops_total", kind="query")
                worker.observe("op_seconds", value)
            sharded.absorb(worker.collect_delta())
        assert sharded.counter_value("ops_total", kind="query") == len(observations)
        assert sharded.histogram_count("op_seconds") == direct.histogram_count("op_seconds")
        assert sharded.histogram_sum("op_seconds") == pytest.approx(
            direct.histogram_sum("op_seconds")
        )
        for percent in (50, 95, 99):
            assert sharded.percentile("op_seconds", percent) == pytest.approx(
                direct.percentile("op_seconds", percent)
            )

    def test_mismatched_buckets_fold_into_overflow(self):
        master = MetricsRegistry()
        master.observe("h", 0.001)
        other = MetricsRegistry()
        other.observe("h", 0.5, buckets=(1.0,))
        master.absorb(other.collect_delta())
        # Nothing dropped: count and sum stay exact even if shape degrades.
        assert master.histogram_count("h") == 2
        assert master.histogram_sum("h") == pytest.approx(0.501)

    def test_absorb_none_is_a_noop(self):
        registry = MetricsRegistry()
        registry.absorb(None)
        registry.absorb(MetricsDelta())
        assert registry.as_dict() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestExposition:
    def test_as_dict_shape(self):
        registry = MetricsRegistry()
        registry.inc("c_total", 2, kind="q")
        registry.set_gauge("g", 1.5)
        registry.observe("h_seconds", 0.01)
        payload = registry.as_dict()
        assert payload["counters"] == {'c_total{kind="q"}': 2.0}
        assert payload["gauges"] == {"g": 1.5}
        digest = payload["histograms"]["h_seconds"]
        assert digest["count"] == 1
        assert digest["sum"] == pytest.approx(0.01)
        assert digest["p50"] > 0.0

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.inc("dsr_queries_total", 3, representation="bits")
        registry.set_gauge("dsr_epoch", 4)
        registry.observe("dsr_query_seconds", 0.004)
        text = registry.to_prometheus()
        assert "# TYPE dsr_queries_total counter" in text
        assert 'dsr_queries_total{representation="bits"} 3' in text
        assert "# TYPE dsr_epoch gauge" in text
        assert "dsr_epoch 4" in text
        assert "# TYPE dsr_query_seconds histogram" in text
        assert 'dsr_query_seconds_bucket{le="+Inf"} 1' in text
        assert "dsr_query_seconds_count 1" in text
        # Bucket counts are cumulative: every bucket at/above 0.005 sees it.
        assert 'dsr_query_seconds_bucket{le="0.005"} 1' in text
        assert 'dsr_query_seconds_bucket{le="0.0025"} 0' in text

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestGlobalRegistry:
    def test_use_registry_swaps_and_restores(self):
        outer = global_registry()
        with use_registry() as inner:
            assert global_registry() is inner
            assert inner is not outer
            inner.inc("scoped_total")
        assert global_registry() is outer
        assert outer.counter_value("scoped_total") == 0

    def test_set_global_registry_returns_previous(self):
        current = global_registry()
        replacement = MetricsRegistry()
        previous = set_global_registry(replacement)
        try:
            assert previous is current
            assert global_registry() is replacement
        finally:
            set_global_registry(current)


class TestThreadSafety:
    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()

        def hammer():
            for _ in range(1000):
                registry.inc("c")
                registry.observe("h", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("c") == 4000
        assert registry.histogram_count("h") == 4000

    def test_label_values_reads_under_the_lock(self):
        # One thread keeps inserting first-seen label values (a new dict key
        # per observe) while another lists them: an unlocked iteration dies
        # with "dictionary changed size during iteration".  Other series
        # make every read a long iteration and the interpreter switches
        # threads often, so a switch lands inside a read.  The reader spins
        # without yielding but makes a bounded number of reads: each one
        # holds the lock, and an unbounded spin can starve the writer of it.
        registry = MetricsRegistry()
        for serial in range(6000):
            registry.observe("other", 0.001, tenant=f"elsewhere{serial}")

        def fresh_tenants():
            for serial in range(3000):
                registry.observe("h", 0.001, tenant=f"t{serial}", zone="a")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-4)
        try:
            writer = threading.Thread(target=fresh_tenants)
            writer.start()
            sizes = []
            while writer.is_alive() and len(sizes) < 400:
                sizes.append(len(registry.label_values("h", "tenant")))
            writer.join()
        finally:
            sys.setswitchinterval(interval)
        assert sizes == sorted(sizes)  # only ever grows
        final = registry.label_values("h", "tenant")
        assert final == tuple(sorted(f"t{serial}" for serial in range(3000)))
        assert registry.label_values("h", "zone") == ("a",)
        assert registry.label_values("unseen", "tenant") == ()


def test_default_buckets_are_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
