"""Cross-service serving-metrics aggregation (the ISSUE 9 satellite fix).

The bug: ``ServingMetrics`` auto-assigns ``svcN`` ids from a module-level
counter.  A registry that outlives that counter (fresh subprocess, module
reload) would hand a new service an id whose label children already carry
a predecessor's counts — silently *merging* two services' totals, so any
per-family rollup double-counted.  The fix: auto ids skip every
``service=`` label value already present in the registry, and each new
service materializes its children at birth so it is immediately visible
to that check.

Also covered: :func:`aggregate_serving_snapshot` sums counter families
with each label child counted exactly once, and merges histograms over
the *pooled* sample windows (not an average of per-service percentiles).
"""

import itertools

import numpy as np
import pytest

import repro.serving.metrics as serving_metrics
from repro.observability import MetricsRegistry, set_registry
from repro.observability.metrics import _HistogramState
from repro.serving.metrics import (
    ServingMetrics,
    aggregate_serving_snapshot,
    used_service_ids,
)


@pytest.fixture()
def fresh_registry():
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


class TestServiceIdCollisions:
    def test_auto_ids_are_distinct(self, fresh_registry):
        ids = {ServingMetrics().service_id for _ in range(5)}
        assert len(ids) == 5

    def test_counter_reset_does_not_reuse_live_ids(self, fresh_registry,
                                                   monkeypatch):
        """A reused registry + reset module counter (the double-count
        repro) must still produce fresh ids."""
        first = ServingMetrics()
        first.submitted.inc(3)
        # Simulate a module reload: the id counter restarts at zero while
        # the registry (and first's label children) live on.
        monkeypatch.setattr(serving_metrics, "_SERVICE_IDS",
                            itertools.count())
        second = ServingMetrics()
        assert second.service_id != first.service_id
        second.submitted.inc(2)
        # No merge: each service still reports its own count.
        assert first.submitted.value == 3
        assert second.submitted.value == 2

    def test_new_service_visible_before_first_request(self, fresh_registry):
        metrics = ServingMetrics()
        # Immediately discoverable — not only after traffic arrives.
        assert metrics.service_id in used_service_ids(fresh_registry)

    def test_explicit_id_respected(self, fresh_registry):
        assert ServingMetrics(service_id="gw").service_id == "gw"

    def test_auto_id_reads_label_keys_without_percentiles(self, fresh_registry,
                                                          monkeypatch):
        """Building the N-th service must not summarise the N-1 before it."""
        for _ in range(4):
            earlier = ServingMetrics()
            for value in (0.1, 0.2, 0.3):
                earlier.latency_s.observe(value)
                earlier.queue_wait_s.observe(value)
        calls = []
        original = _HistogramState.percentile

        def counting(state, q):
            calls.append(q)
            return original(state, q)

        monkeypatch.setattr(_HistogramState, "percentile", counting)
        metrics = ServingMetrics()
        assert len(used_service_ids(fresh_registry)) == 5
        assert metrics.service_id.startswith("svc")
        assert calls == []


class TestAggregation:
    def test_counters_sum_each_child_once(self, fresh_registry):
        a, b = ServingMetrics(), ServingMetrics()
        a.submitted.inc(4)
        b.submitted.inc(6)
        a.cache_hits.inc(1)
        b.cache_misses.inc(3)
        snapshot = aggregate_serving_snapshot(fresh_registry)
        assert snapshot["requests"]["submitted"] == 10
        assert snapshot["cache"]["hits"] == 1
        assert snapshot["cache"]["misses"] == 3
        assert snapshot["cache"]["hit_rate"] == pytest.approx(0.25)
        assert set(snapshot["services"]) == {a.service_id, b.service_id}

    def test_services_filter_restricts_rollup(self, fresh_registry):
        a, b = ServingMetrics(), ServingMetrics()
        a.submitted.inc(4)
        b.submitted.inc(6)
        only_a = aggregate_serving_snapshot(
            fresh_registry, services=[a.service_id]
        )
        assert only_a["requests"]["submitted"] == 4
        assert only_a["services"] == [a.service_id]

    def test_histograms_pool_samples_exactly(self, fresh_registry):
        """The aggregated p99 is the percentile of the union of samples —
        not the mean of per-service p99s, which would understate the hot
        replica's tail."""
        a, b = ServingMetrics(), ServingMetrics()
        fast = [0.001] * 99
        slow = [1.0] * 99
        for value in fast:
            a.latency_s.observe(value)
        for value in slow:
            b.latency_s.observe(value)
        snapshot = aggregate_serving_snapshot(fresh_registry)
        merged = snapshot["latency_s"]
        assert merged["count"] == 198
        assert merged["min"] == pytest.approx(0.001)
        assert merged["max"] == pytest.approx(1.0)
        pooled = np.percentile(fast + slow, 99)
        assert merged["p99"] == pytest.approx(pooled)
        # The wrong rollup (average of per-service p99s) would be ~0.5.
        assert merged["p99"] > 0.9

    def test_empty_registry_aggregates_to_zeros(self, fresh_registry):
        snapshot = aggregate_serving_snapshot(fresh_registry)
        assert snapshot["requests"]["submitted"] == 0
        assert snapshot["cache"]["hit_rate"] == 0.0
        assert snapshot["latency_s"]["count"] == 0
        assert snapshot["services"] == []

    def test_snapshot_shape_matches_per_service(self, fresh_registry):
        metrics = ServingMetrics()
        metrics.submitted.inc()
        metrics.latency_s.observe(0.01)
        per_service = metrics.snapshot()
        aggregated = aggregate_serving_snapshot(fresh_registry)
        missing = set(per_service) - set(aggregated)
        assert not missing, f"aggregate lost keys: {missing}"
