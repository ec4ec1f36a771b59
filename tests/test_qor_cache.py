"""Persistent QoR result cache: keys, storage, and call-site integration."""

import pytest

from conftest import tiny_profile

from repro.core.dataset import build_offline_dataset
from repro.flow.parameters import FlowParameters, OptParams
from repro.flow.runner import run_flow
from repro.flow.sweep import sweep
from repro.runtime import (
    FaultKind,
    FaultPlan,
    FlowJob,
    FlowSession,
    QoRCache,
    RuntimeConfig,
    qor_cache_key,
)

from test_parallel_executor import toy_flow


class TestCacheKey:
    def test_key_is_stable_and_canonical(self):
        params = FlowParameters(opt=OptParams(vt_swap_bias=1.25))
        key = qor_cache_key("D6", params, seed=3)
        assert key == qor_cache_key("D6", params, seed=3)
        # Equal parameter objects hash identically even when rebuilt.
        again = FlowParameters(opt=OptParams(vt_swap_bias=1.25))
        assert key == qor_cache_key("D6", again, seed=3)

    def test_key_resolves_profiles_to_names(self):
        # A profile object and its name address the same cache slot.
        profile = tiny_profile()
        params = FlowParameters()
        by_profile = qor_cache_key(profile, params, seed=0)
        assert len(by_profile) == 64  # sha256 hex
        assert by_profile != qor_cache_key("D6", params, seed=0)

    def test_key_separates_design_seed_and_params(self):
        params = FlowParameters()
        base = qor_cache_key("D6", params, seed=0)
        assert base != qor_cache_key("D10", params, seed=0)
        assert base != qor_cache_key("D6", params, seed=1)
        assert base != qor_cache_key(
            "D6", FlowParameters(opt=OptParams(vt_swap_bias=1.3)), seed=0
        )


class TestQoRCacheStore:
    def test_put_get_round_trip(self, tmp_path):
        profile = tiny_profile()
        result = run_flow(profile, FlowParameters(), seed=5)
        cache = QoRCache(tmp_path / "qor")
        assert cache.get(profile, FlowParameters(), 5) is None
        cache.put(profile, FlowParameters(), 5, result)
        hit = cache.get(profile, FlowParameters(), 5)
        assert hit is not None
        assert hit.qor == result.qor
        assert [s.metrics for s in hit.snapshots] == \
            [s.metrics for s in result.snapshots]
        info = cache.info()
        assert info["entries"] == 1
        assert info["hits"] == 1 and info["misses"] == 1
        assert info["bytes"] > 0

    def test_corrupt_entry_is_a_miss_and_evicted(self, tmp_path):
        profile = tiny_profile()
        result = run_flow(profile, FlowParameters(), seed=1)
        cache = QoRCache(tmp_path / "qor")
        cache.put(profile, FlowParameters(), 1, result)
        (entry,) = list((tmp_path / "qor").rglob("*.pkl"))
        entry.write_bytes(b"not a pickle")
        assert cache.get(profile, FlowParameters(), 1) is None
        assert not entry.exists()  # evicted, next put re-creates it
        cache.put(profile, FlowParameters(), 1, result)
        assert cache.get(profile, FlowParameters(), 1) is not None

    def test_clear_and_info(self, tmp_path):
        cache = QoRCache(tmp_path / "qor")
        result = run_flow(tiny_profile(), FlowParameters(), seed=0)
        for seed in range(3):
            cache.put(tiny_profile(), FlowParameters(), seed, result)
        assert cache.info()["entries"] == 3
        assert cache.clear() == 3
        assert cache.info()["entries"] == 0


class TestExecutorIntegration:
    def test_warm_batch_is_served_from_cache(self, tmp_path):
        profile = tiny_profile()
        jobs = [
            FlowJob(profile, FlowParameters(opt=OptParams(
                vt_swap_bias=1.0 + 0.1 * i)), seed=2)
            for i in range(3)
        ]
        path = tmp_path / "qor"
        config = RuntimeConfig(workers=1, qor_cache_path=path)
        with FlowSession(config) as cold:
            first = cold.evaluate(jobs)
        assert all(r.ok and not r.cached for r in first)
        with FlowSession(config) as warm:
            second = warm.evaluate(jobs)
            stats = warm.stats()
        for a, b in zip(first, second):
            assert b.cached
            assert b.attempts == []  # no flow ran at all
            assert b.result.qor == a.result.qor
        assert stats["cache"]["hits"] == len(jobs)

    def test_fault_injected_runs_are_never_cached(self, tmp_path):
        plan = FaultPlan(rate=1.0, kinds=(FaultKind.CRASH,), seed=11)
        path = tmp_path / "qor"
        with FlowSession(RuntimeConfig(
            workers=1, qor_cache_path=path, fault_plan=plan
        ), flow_fn=toy_flow) as executor:
            reports = executor.evaluate([FlowJob("D6")])
        assert not reports[0].ok
        assert QoRCache(path).info()["entries"] == 0

    def test_cached_results_round_trip_exactly(self, tmp_path):
        # Cached FlowResults must round-trip exactly — they feed the same
        # dataset/insight code paths as fresh ones.
        profile = tiny_profile()
        result = run_flow(profile, FlowParameters(), seed=9)
        cache = QoRCache(tmp_path / "qor")
        cache.put(profile, FlowParameters(), 9, result)
        hit = cache.get(profile, FlowParameters(), 9)
        assert hit.design == result.design
        assert hit.qor == result.qor
        assert [(s.stage, s.metrics) for s in hit.snapshots] == \
            [(s.stage, s.metrics) for s in result.snapshots]


class TestCallSites:
    def test_sweep_parallel_and_cached_matches_serial(self, tmp_path):
        profile = tiny_profile()
        axes = {"opt.vt_swap_bias": [0.8, 1.0, 1.2],
                "placer.effort": [0.8, 1.0]}
        serial = sweep(profile, axes, seed=4)
        path = str(tmp_path / "qor")
        parallel = sweep(profile, axes, seed=4,
                         runtime=RuntimeConfig(workers=2, qor_cache_path=path))
        cached = sweep(profile, axes, seed=4,
                       runtime=RuntimeConfig(workers=1, qor_cache_path=path))
        assert parallel.grid == serial.grid
        assert parallel.qors == serial.qors
        assert cached.qors == serial.qors

    @pytest.mark.parametrize("processes", (1, 2))
    def test_offline_dataset_identical_at_any_worker_count(
        self, tmp_path, processes
    ):
        kwargs = dict(designs=["D6"], sets_per_design=3, seed=5)
        reference = build_offline_dataset(
            runtime=RuntimeConfig(workers=1), **kwargs
        )
        dataset = build_offline_dataset(
            runtime=RuntimeConfig(
                workers=processes,
                qor_cache_path=str(tmp_path / f"qor{processes}"),
            ),
            **kwargs,
        )
        assert len(dataset.points) == len(reference.points)
        for a, b in zip(reference.points, dataset.points):
            assert a.design == b.design
            assert a.recipe_set == b.recipe_set
            assert a.qor == b.qor
        import numpy as np

        np.testing.assert_array_equal(
            dataset.insights["D6"].values, reference.insights["D6"].values
        )
