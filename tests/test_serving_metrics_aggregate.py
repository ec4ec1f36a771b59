"""Serving-metrics service ids: no two services share a label child.

The bug: ``ServingMetrics`` auto-assigns ``svcN`` ids from a module-level
counter.  A registry that outlives that counter (fresh subprocess, module
reload) would hand a new service an id whose label children already carry
a predecessor's counts — silently *merging* two services' totals, so any
per-family rollup double-counted.  The fix: auto ids skip every
``service=`` label value already present in the registry, and each new
service materializes its children at birth so it is immediately visible
to that check.
"""

import itertools

import pytest

import repro.serving.metrics as serving_metrics
from repro.observability import MetricsRegistry, set_registry
from repro.observability.metrics import _HistogramState
from repro.serving.metrics import ServingMetrics, used_service_ids


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

