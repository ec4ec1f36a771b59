"""Unit tests for the serving building blocks: registry, cache, metrics."""

import numpy as np
import pytest

from repro.core.model import InsightAlignModel
from repro.core.recommender import InsightAlign
from repro.errors import RegistryError
from repro.insights.schema import INSIGHT_DIMS
from repro.serving.cache import ResultCache, quantize_insight
from repro.observability.metrics import Counter, Histogram
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry


def make_recommender(seed):
    return InsightAlign(InsightAlignModel(n_recipes=6, dim=8, seed=seed))


class TestModelRegistry:
    def test_register_and_activate_in_memory(self):
        registry = ModelRegistry()
        ia = make_recommender(1)
        registry.register("v1", ia)
        assert registry.activate("v1") is ia
        assert registry.active_version == "v1"
        assert registry.recommender is ia

    def test_activate_from_path_loads_archive(self, tmp_path):
        ia = make_recommender(2)
        path = tmp_path / "model.npz"
        ia.save(path)
        registry = ModelRegistry()
        registry.register("disk", path)
        loaded = registry.activate("disk")
        insight = np.random.default_rng(0).normal(size=(INSIGHT_DIMS,))
        np.testing.assert_allclose(
            loaded.model.probabilities(insight),
            ia.model.probabilities(insight),
            atol=1e-12,
        )

    def test_failed_activation_keeps_previous_model(self, tmp_path):
        registry = ModelRegistry()
        ia = make_recommender(3)
        registry.register("good", ia)
        registry.register("broken", tmp_path / "missing.npz")
        registry.activate("good")
        with pytest.raises(Exception):
            registry.activate("broken")
        # Zero-downtime: the good model still serves.
        assert registry.active_version == "good"
        assert registry.recommender is ia

    def test_subscribers_fire_on_activation_only(self):
        registry = ModelRegistry()
        seen = []
        registry.subscribe(seen.append)
        registry.register("v1", make_recommender(4))
        assert seen == []
        registry.activate("v1")
        assert seen == ["v1"]

    def test_duplicate_version_rejected(self):
        registry = ModelRegistry()
        registry.register("v1", make_recommender(5))
        with pytest.raises(RegistryError):
            registry.register("v1", make_recommender(6))

    def test_unknown_version_and_empty_registry(self):
        registry = ModelRegistry()
        with pytest.raises(RegistryError):
            registry.activate("nope")
        with pytest.raises(RegistryError):
            registry.recommender

    def test_versions_sorted(self):
        registry = ModelRegistry()
        for version in ("v2", "v1", "v10"):
            registry.register(version, make_recommender(7))
        assert registry.versions() == ["v1", "v10", "v2"]


class TestResultCache:
    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refresh a
        cache.put("c", 3)                   # evicts b, the LRU entry
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.evictions == 1

    def test_quantization_merges_float_noise(self):
        vec = np.random.default_rng(1).normal(size=(INSIGHT_DIMS,))
        assert quantize_insight(vec) == quantize_insight(vec + 1e-9)
        assert quantize_insight(vec) != quantize_insight(vec + 1e-3)

    def test_quantization_normalizes_negative_zero(self):
        assert quantize_insight(np.array([0.0])) == quantize_insight(
            np.array([-1e-12])
        )

    def test_key_includes_version_and_k(self):
        cache = ResultCache()
        vec = np.zeros(INSIGHT_DIMS)
        assert cache.key("v1", vec, 5) != cache.key("v2", vec, 5)
        assert cache.key("v1", vec, 5) != cache.key("v1", vec, 4)

    def test_invalidate_clears_and_counts(self):
        cache = ResultCache()
        cache.put("a", 1)
        assert cache.invalidate() == 1
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats()["invalidations"] == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None


class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_histogram_exact_aggregates(self):
        hist = Histogram("h")
        for value in (1.0, 2.0, 3.0, 10.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(4.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 10.0
        assert summary["p50"] == pytest.approx(2.5)

    def test_histogram_window_keeps_lifetime_aggregates(self):
        hist = Histogram("h", max_samples=4)
        for value in range(100):
            hist.observe(float(value))
        assert hist.count == 100            # exact even past the window
        assert hist.summary()["max"] == 99.0
        # Percentiles cover the recent window only.
        assert hist.percentile(0.0) >= 96.0

    def test_empty_histogram_summary(self):
        summary = Histogram("h").summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_snapshot_is_detached(self):
        metrics = ServingMetrics()
        metrics.submitted.inc()
        snapshot = metrics.snapshot()
        snapshot["requests"]["submitted"] = 999
        assert metrics.submitted.value == 1
        assert metrics.snapshot()["requests"]["submitted"] == 1
