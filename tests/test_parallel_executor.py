"""Parallel flow evaluation: sequential equivalence, faults, batching.

The hard guarantee under test: a :class:`~repro.runtime.FlowSession` batch
returns bit-identical results to the sequential loop for the same seeds at
any worker count — QoR dicts, stage snapshots, derived insight vectors —
and seeded fault injection surfaces the same typed errors through the
process-pool boundary as it does in-process.
"""

import pickle

import numpy as np
import pytest

from conftest import tiny_profile

from repro.baselines.aco import AntColonyTuner
from repro.baselines.common import CachingObjective, TuningBudget
from repro.baselines.random_search import RandomSearchTuner
from repro.errors import (
    CorruptQoR,
    FlowCrash,
    FlowError,
    FlowTimeout,
    NetlistError,
)
from repro.flow.parameters import FlowParameters, OptParams
from repro.flow.result import FlowResult, StageSnapshot
from repro.flow.runner import REQUIRED_QOR_KEYS, run_flow
from repro.flow.stages import FlowStage
from repro.insights.extractor import InsightExtractor
from repro.runtime import (
    FaultKind,
    FaultPlan,
    FlowExecutor,
    FlowJob,
    FlowSession,
    RetryPolicy,
    RuntimeConfig,
)

WORKER_COUNTS = (1, 2, 8)


def _jobs(profile, count=3):
    """A few distinct parameterizations of one tiny design."""
    jobs = []
    for index in range(count):
        params = FlowParameters(
            opt=OptParams(vt_swap_bias=1.0 + 0.05 * index)
        )
        jobs.append(FlowJob(profile, params, seed=3))
    return jobs


def toy_flow(design, params, seed=0):
    """Cheap deterministic stand-in (module-level: picklable for pools)."""
    base = 1.0 + round(params.opt.vt_swap_bias, 6)
    return FlowResult(
        design=str(design),
        qor={key: base * (index + 1) * 0.125
             for index, key in enumerate(REQUIRED_QOR_KEYS)},
        snapshots=[
            StageSnapshot(stage, {"metric": base * step})
            for step, stage in enumerate(FlowStage)
        ],
    )


class TestSequentialEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        """The plain sequential loop the parallel path must reproduce."""
        profile = tiny_profile()
        executor = FlowExecutor()
        return profile, [
            executor.execute(job.design, job.params, seed=job.seed)
            for job in _jobs(profile)
        ]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_at_any_worker_count(self, reference, workers):
        profile, expected = reference
        with FlowSession(RuntimeConfig(workers=workers)) as executor:
            results = executor.evaluate_strict(_jobs(profile))
        extractor = InsightExtractor()
        for got, want in zip(results, expected):
            # QoR dicts: exact float equality, not approx.
            assert got.qor == want.qor
            # Full stage trajectories.
            assert len(got.snapshots) == len(want.snapshots)
            for s_got, s_want in zip(got.snapshots, want.snapshots):
                assert s_got.stage is s_want.stage
                assert s_got.metrics == s_want.metrics
            # Derived insight vectors.
            np.testing.assert_array_equal(
                extractor.extract(got, profile).values,
                extractor.extract(want, profile).values,
            )

    def test_reports_come_back_in_submission_order(self):
        profile = tiny_profile()
        jobs = _jobs(profile, count=4)
        with FlowSession(RuntimeConfig(workers=2)) as executor:
            reports = executor.evaluate(jobs)
        for job, report in zip(jobs, reports):
            direct = run_flow(job.design, job.params, seed=job.seed)
            assert report.ok
            assert report.result.qor == direct.qor

    @pytest.mark.parametrize("workers", (1, 2))
    def test_config_errors_propagate_untyped(self, workers):
        # An unknown design is a configuration bug, not tool flakiness:
        # it must raise (NetlistError), not be absorbed into a report.
        with FlowSession(RuntimeConfig(workers=workers)) as executor:
            with pytest.raises(NetlistError):
                executor.evaluate([FlowJob("NOPE")])


class TestTypedErrorsThroughThePool:
    def test_flow_errors_survive_pickling(self):
        for error in (
            FlowTimeout("run took 99.0s, past the 10.0s deadline"),
            FlowCrash("flow tool crashed: SimulatedToolCrash('boom')"),
            CorruptQoR("flow run on D6 produced non-finite QoR metrics"),
        ):
            clone = pickle.loads(pickle.dumps(error))
            assert type(clone) is type(error)
            assert str(clone) == str(error)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_fault_schedule_invariant_to_worker_count(self, workers):
        """Seeded faults at rate 1.0: every job fails with the same typed
        error at 1, 2 and 8 workers (job-index-keyed schedules)."""
        plan = FaultPlan(
            rate=1.0,
            kinds=(FaultKind.CRASH, FaultKind.CORRUPT_QOR, FaultKind.HANG),
            seed=17,
            hang_s=1000.0,
        )
        jobs = [FlowJob("D6", FlowParameters(), seed=i) for i in range(6)]
        kwargs = dict(
            fault_plan=plan,
            deadline_s=10.0,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.01),
        )
        with FlowSession(RuntimeConfig(workers=1, **kwargs),
                         flow_fn=toy_flow) as sequential:
            expected = sequential.evaluate(jobs)
        with FlowSession(RuntimeConfig(workers=workers, **kwargs),
                         flow_fn=toy_flow) as parallel:
            got = parallel.evaluate(jobs)
        assert all(not report.ok for report in expected)
        for a, b in zip(expected, got):
            assert b.ok is False
            assert type(b.error) is type(a.error)
            assert str(b.error) == str(a.error)
            assert isinstance(b.error, FlowError)
            assert len(b.attempts) == len(a.attempts)

    def test_hang_surfaces_as_timeout_through_pool(self):
        plan = FaultPlan(rate=1.0, kinds=(FaultKind.HANG,), seed=3,
                         hang_s=500.0)
        with FlowSession(RuntimeConfig(
            workers=2, fault_plan=plan, deadline_s=10.0,
            policy=RetryPolicy(max_attempts=1),
        ), flow_fn=toy_flow) as executor:
            reports = executor.evaluate(
                [FlowJob("D6", FlowParameters(), seed=i) for i in range(3)]
            )
        for report in reports:
            assert isinstance(report.error, FlowTimeout)

    def test_execute_batch_raises_first_failure_by_submission_order(self):
        plan = FaultPlan(rate=1.0, kinds=(FaultKind.CRASH,), seed=5)
        with FlowSession(RuntimeConfig(
            workers=2, fault_plan=plan,
            policy=RetryPolicy(max_attempts=1),
        ), flow_fn=toy_flow) as executor:
            with pytest.raises(FlowCrash):
                executor.evaluate_strict([FlowJob("D6"), FlowJob("D10")])


class TestBatchObjectives:
    def test_random_search_trajectory_unchanged_by_batching(self):
        def objective(bits):
            return float(sum(bits)) - 0.01 * bits[0]

        class Batched:
            def __call__(self, bits):
                return objective(bits)

            def evaluate_batch(self, sets):
                return [objective(bits) for bits in sets]

        budget = TuningBudget(evaluations=17)
        plain = RandomSearchTuner(seed=4, population=1).tune(objective, budget)
        pop = RandomSearchTuner(seed=4, population=6).tune(Batched(), budget)
        assert plain.recipe_sets == pop.recipe_sets
        assert plain.scores == pop.scores

    def test_aco_trajectory_unchanged_by_batching(self):
        def objective(bits):
            return float(sum(bits[:10])) - 0.25 * sum(bits[10:])

        class Batched:
            def __call__(self, bits):
                return objective(bits)

            def evaluate_batch(self, sets):
                return [objective(bits) for bits in sets]

        budget = TuningBudget(evaluations=15)
        plain = AntColonyTuner(seed=9).tune(objective, budget)
        batched = AntColonyTuner(seed=9).tune(Batched(), budget)
        assert plain.recipe_sets == batched.recipe_sets
        assert plain.scores == batched.scores

    def test_caching_objective_batch_dedups(self):
        calls = []

        def objective(bits):
            calls.append(bits)
            return float(sum(bits))

        caching = CachingObjective(objective)
        a, b = (1, 0, 1), (0, 1, 1)
        scores = caching.evaluate_batch([a, b, a, a])
        assert scores == [2.0, 2.0, 2.0, 2.0]
        assert len(calls) == 2  # duplicates never reach the objective
        assert caching.evaluate_batch([b]) == [2.0]
        assert len(calls) == 2  # second batch fully served from cache


class TestOnlineLoopParallel:
    @pytest.fixture(scope="class")
    def archive(self):
        """Synthetic archive over real profile names (no flow runs)."""
        from repro.core.dataset import DataPoint, OfflineDataset
        from repro.insights.extractor import InsightVector
        from repro.insights.schema import INSIGHT_DIMS

        rng = np.random.default_rng(0)
        points = []
        insights = {}
        for design in ("D6", "D10"):
            insights[design] = InsightVector(
                design, rng.normal(size=(INSIGHT_DIMS,)), {}
            )
            for _ in range(24):
                bits = tuple(int(b) for b in rng.integers(0, 2, size=40))
                qor = {key: float(rng.uniform(0.5, 2.0))
                       for key in REQUIRED_QOR_KEYS}
                points.append(DataPoint(design, bits, qor))
        return OfflineDataset(points=points, insights=insights, seed=0)

    def test_parallel_iterations_match_sequential(self, archive):
        """A two-worker runtime reproduces the sequential fine-tuning run
        exactly: same survivors, same QoR, same scores, same weights."""
        from repro.core.model import InsightAlignModel
        from repro.core.online import OnlineConfig, OnlineFineTuner

        base = dict(iterations=2, k=2, seed=13, explore_samples=1)

        def run(config):
            model = InsightAlignModel(seed=13)
            tuner = OnlineFineTuner(config)
            try:
                return tuner.run(model, archive, "D6"), model
            finally:
                tuner.close()

        seq_result, seq_model = run(OnlineConfig(**base))
        par_result, par_model = run(
            OnlineConfig(runtime=RuntimeConfig(workers=2, seed=13), **base)
        )

        assert len(seq_result.records) == len(par_result.records)
        for a, b in zip(seq_result.records, par_result.records):
            assert a.recipe_sets == b.recipe_sets
            assert a.qors == b.qors
            assert a.scores == b.scores
            assert a.updated == b.updated
        for key, value in seq_model.state_dict().items():
            np.testing.assert_array_equal(
                value, par_model.state_dict()[key], err_msg=key
            )
