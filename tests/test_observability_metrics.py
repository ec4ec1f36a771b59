"""Unit tests for the metrics registry and label families."""

import json
import threading

import pytest

from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_unlabelled_fast_path(self):
        counter = Counter("requests_total")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_labels_partition_the_family(self):
        counter = Counter("flow_failures_total")
        counter.inc(type="TimeoutError")
        counter.inc(2, type="PlacementError")
        assert counter.value_of(type="TimeoutError") == 1
        assert counter.value_of(type="PlacementError") == 2
        assert counter.value == 0  # unlabelled child untouched

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("c").inc(-1)

    def test_bound_child(self):
        counter = Counter("served_total")
        bound = counter.bind(service="svc9")
        bound.inc(3)
        assert bound.value == 3
        assert counter.value_of(service="svc9") == 3

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("bad name")
        with pytest.raises(ValueError, match="invalid label name"):
            Counter("ok").inc(**{"bad-label": "x"})


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("queue_depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13

    def test_labelled_children(self):
        gauge = Gauge("loss")
        gauge.set(0.5, phase="align")
        gauge.set(0.25, phase="online")
        assert gauge.value_of(phase="align") == 0.5
        assert gauge.value_of(phase="online") == 0.25


class TestHistogram:
    def test_summary_and_percentiles(self):
        histogram = Histogram("latency_seconds")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(2.5)
        summary = histogram.summary()
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["p50"] == pytest.approx(2.5)

    def test_reservoir_keeps_exact_lifetime_aggregates(self):
        histogram = Histogram("h", max_samples=4)
        for value in range(100):
            histogram.observe(float(value))
        # Exact lifetime stats survive the bounded reservoir...
        assert histogram.count == 100
        summary = histogram.summary()
        assert summary["min"] == 0.0 and summary["max"] == 99.0
        # ...while percentiles cover only the recent window.
        assert histogram.percentile(50) >= 96.0

    def test_empty_summary_is_zeroed(self):
        summary = Histogram("empty").summary()
        assert summary["count"] == 0 and summary["p99"] == 0.0


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.names() == ["a"]

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", "runs").inc(3, status="ok")
        registry.gauge("depth").set(2)
        registry.histogram("wait_s").observe(0.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["runs_total"]["kind"] == "counter"
        assert snapshot["runs_total"]["values"]['{status="ok"}'] == 3
        assert snapshot["depth"]["values"]["{}"] == 2
        assert snapshot["wait_s"]["values"]["{}"]["count"] == 1

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", "total runs").inc(2, status="failed")
        registry.histogram("latency_seconds").observe(1.0)
        text = registry.render_prometheus()
        assert "# HELP runs_total total runs" in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{status="failed"} 2' in text
        assert "# TYPE latency_seconds summary" in text
        assert 'latency_seconds{quantile="0.5"} 1' in text
        assert "latency_seconds_sum 1" in text
        assert "latency_seconds_count 1" in text

    def test_set_registry_round_trip(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("racy_total")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000
