"""FlowSession vs the pre-refactor paths: bit-identical, not approximate.

Each test reconstructs a legacy call pattern exactly as the consumers
wired it before the session layer existed — raw ``run_flow`` loops, the
online loop job by job on the scalar engine — and asserts the
session-routed replacement produces the same bits at workers 1, 2, and 4,
with and
without the persistent QoR cache: QoR dicts compared with ``==`` (float
exactness), typed errors by class and message, model weights with
``assert_array_equal``, and online checkpoints byte-for-byte on disk.
"""

import numpy as np
import pytest

from conftest import tiny_profile
from repro.core.dataset import build_offline_dataset
from repro.core.online import OnlineConfig, OnlineFineTuner
from repro.errors import FlowCrash, FlowError, FlowTimeout
from repro.flow.parameters import FlowParameters, OptParams
from repro.flow.runner import run_flow
from repro.flow.sweep import set_knob, sweep
from repro.runtime import (
    FaultKind,
    FaultPlan,
    FlowJob,
    FlowSession,
    RetryPolicy,
    RuntimeConfig,
)
from test_parallel_executor import toy_flow

WORKER_COUNTS = (1, 2, 4)


# ----------------------------------------------------------------------
# Sweep: legacy = the serial run_flow loop sweep() used to inline.
# ----------------------------------------------------------------------
class TestSweepEquivalence:
    AXES = {"opt.vt_swap_bias": [0.9, 1.0, 1.1], "placer.effort": [0.8, 1.0]}

    @pytest.fixture(scope="class")
    def legacy(self):
        import itertools

        profile = tiny_profile()
        knobs = list(self.AXES)
        grid = list(itertools.product(*(self.AXES[k] for k in knobs)))
        qors = []
        for point in grid:
            params = FlowParameters()
            for knob, value in zip(knobs, point):
                params = set_knob(params, knob, value)
            qors.append(dict(run_flow(profile, params, seed=6).qor))
        return profile, grid, qors

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("cached", (False, True))
    def test_bit_identical(self, legacy, tmp_path, workers, cached):
        profile, grid, qors = legacy
        runtime = RuntimeConfig(
            workers=workers,
            qor_cache_path=(
                str(tmp_path / f"qor-{workers}") if cached else None
            ),
        )
        result = sweep(profile, self.AXES, seed=6, runtime=runtime)
        assert result.grid == grid
        assert result.qors == qors


# ----------------------------------------------------------------------
# Dataset build: legacy reference built once at one worker, no cache.
# ----------------------------------------------------------------------
class TestDatasetEquivalence:
    KWARGS = dict(designs=["D6"], sets_per_design=3, seed=9)

    @pytest.fixture(scope="class")
    def reference(self):
        """Every job on its own (width 1); the sessions under test stack."""
        return build_offline_dataset(
            runtime=RuntimeConfig(workers=1, batch_size=1), **self.KWARGS
        )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("cached", (False, True))
    def test_bit_identical(self, reference, tmp_path, workers, cached):
        dataset = build_offline_dataset(
            runtime=RuntimeConfig(
                workers=workers,
                qor_cache_path=(
                    str(tmp_path / f"qor-{workers}") if cached else None
                ),
            ),
            **self.KWARGS,
        )
        assert len(dataset.points) == len(reference.points)
        for got, want in zip(dataset.points, reference.points):
            assert got.design == want.design
            assert got.recipe_set == want.recipe_set
            assert got.qor == want.qor
        np.testing.assert_array_equal(
            dataset.insights["D6"].values, reference.insights["D6"].values
        )


# ----------------------------------------------------------------------
# Baseline objective: legacy = scoring raw run_flow results directly.
# ----------------------------------------------------------------------
class TestBaselineEquivalence:
    SETS = [
        tuple(1 if i == j else 0 for i in range(40)) for j in (0, 7, 23)
    ] + [tuple(0 for _ in range(40))]

    @pytest.fixture(scope="class")
    def legacy_scores(self):
        from repro.recipes.apply import apply_recipe_set
        from repro.recipes.catalog import default_catalog

        profile = tiny_profile()
        catalog = default_catalog()
        scores = []
        for bits in self.SETS:
            params = apply_recipe_set(list(bits), catalog)
            scores.append(-run_flow(profile, params, seed=2).qor["power_mw"])
        return profile, scores

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("cached", (False, True))
    def test_bit_identical(self, legacy_scores, tmp_path, workers, cached):
        from repro.baselines.common import ParallelFlowObjective, batch_evaluate

        profile, expected = legacy_scores
        objective = ParallelFlowObjective(
            profile,
            lambda qor: -qor["power_mw"],
            runtime=RuntimeConfig(
                workers=workers,
                qor_cache_path=(
                    str(tmp_path / f"qor-{workers}") if cached else None
                ),
            ),
            seed=2,
        )
        try:
            assert batch_evaluate(objective, self.SETS) == expected
            # Single-call path rides the same session.
            assert objective(self.SETS[0]) == expected[0]
        finally:
            objective.close()


# ----------------------------------------------------------------------
# Online loop: legacy = the tuner on its default runtime with the scalar
# engine it ran before the session layer, one job at a time.
# ----------------------------------------------------------------------
class TestOnlineEquivalence:
    BASE = dict(iterations=2, k=5, seed=21, explore_samples=1)

    @pytest.fixture(scope="class")
    def archive(self):
        return build_offline_dataset(
            designs=["D6"], sets_per_design=6, seed=21,
            runtime=RuntimeConfig(workers=1),
        )

    def _run(self, archive, config, flow_fn=None):
        from repro.core.model import InsightAlignModel

        model = InsightAlignModel(seed=21)
        tuner = OnlineFineTuner(config, flow_fn=flow_fn)
        try:
            result = tuner.run(model, archive, "D6")
            return result, model, tuner.session.stats()
        finally:
            tuner.close()

    @pytest.fixture(scope="class")
    def legacy(self, archive, tmp_path_factory):
        path = tmp_path_factory.mktemp("legacy") / "online.ck"
        result, model, _ = self._run(
            archive,
            OnlineConfig(checkpoint_path=str(path), **self.BASE),
            flow_fn=run_flow,
        )
        return result, model, path.read_bytes()

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("cached", (False, True))
    def test_bit_identical(self, archive, legacy, tmp_path, workers, cached):
        import pickle

        want_result, want_model, want_checkpoint = legacy
        path = tmp_path / "online.ck"
        runtime = RuntimeConfig(
            workers=workers,
            qor_cache_path=(
                str(tmp_path / f"qor-{workers}") if cached else None
            ),
            seed=self.BASE["seed"],
        )
        result, model, stats = self._run(
            archive,
            OnlineConfig(
                runtime=runtime, checkpoint_path=str(path), **self.BASE
            ),
        )
        # K = 5 proposals per iteration stack wherever they run: one
        # 5-lane stack in process, 3 + 2 over two pool workers, 2 + 2 + 1
        # over four.
        assert stats["batch_max_width"] == {1: 5, 2: 3, 4: 2}[workers]
        assert len(result.records) == len(want_result.records)
        for got, want in zip(result.records, want_result.records):
            assert got.recipe_sets == want.recipe_sets
            assert got.qors == want.qors
            assert got.scores == want.scores
            assert got.updated == want.updated
            assert got.best_score_so_far == want.best_score_so_far
        for key, value in want_model.state_dict().items():
            np.testing.assert_array_equal(
                value, model.state_dict()[key], err_msg=key
            )
        if workers == 1:
            # Same in-process transport as the legacy sequential loop:
            # the persisted state is the same file, byte for byte.
            assert path.read_bytes() == want_checkpoint
        else:
            # Results that crossed the process pool no longer *share*
            # key-string objects, so the pickler's memo layout differs —
            # exactly as it did on the pre-session parallel path.  Every
            # field is still bit-identical: pickling each checkpoint
            # entry separately (no cross-object memo) must match.
            got_ck = pickle.loads(path.read_bytes())
            want_ck = pickle.loads(want_checkpoint)
            assert sorted(got_ck) == sorted(want_ck)
            for entry in ("version", "kind", "step", "model_state",
                          "optimizer_state", "rng_state"):
                assert pickle.dumps(got_ck[entry], 5) == \
                    pickle.dumps(want_ck[entry], 5), entry
            for entry in got_ck["payload"]:
                if entry == "records":
                    continue
                assert pickle.dumps(got_ck["payload"][entry], 5) == \
                    pickle.dumps(want_ck["payload"][entry], 5), entry
            for got_rec, want_rec in zip(got_ck["payload"]["records"],
                                         want_ck["payload"]["records"]):
                for attr, value in vars(want_rec).items():
                    got_value = getattr(got_rec, attr)
                    if attr == "qors":
                        # Compare dict by dict: within one QoR dict the
                        # keys are unique, so no memo sharing can hide.
                        for got_qor, want_qor in zip(got_value, value):
                            assert pickle.dumps(got_qor, 5) == \
                                pickle.dumps(want_qor, 5)
                    else:
                        assert pickle.dumps(got_value, 5) == \
                            pickle.dumps(value, 5), attr

    def test_pool_checkpoints_byte_identical_across_worker_counts(
        self, archive, tmp_path
    ):
        """Within the pool transport the bytes are exactly reproducible:
        any pool worker count writes the identical checkpoint file."""
        checkpoints = []
        for workers in (2, 4):
            path = tmp_path / f"online-{workers}.ck"
            self._run(
                archive,
                OnlineConfig(
                    runtime=RuntimeConfig(
                        workers=workers, seed=self.BASE["seed"]
                    ),
                    checkpoint_path=str(path),
                    **self.BASE,
                ),
            )
            checkpoints.append(path.read_bytes())
        assert checkpoints[0] == checkpoints[1]


# ----------------------------------------------------------------------
# Cross-validation: legacy = the raw run_flow-per-candidate loop that
# evaluate_design inlined before it gained a session.
# ----------------------------------------------------------------------
class TestCrossvalEquivalence:
    @pytest.fixture(scope="class")
    def setup(self):
        from repro.core.beam import beam_search
        from repro.core.model import InsightAlignModel
        from repro.recipes.apply import apply_recipe_set
        from repro.recipes.catalog import default_catalog

        archive = build_offline_dataset(
            designs=["D6"], sets_per_design=4, seed=3,
            runtime=RuntimeConfig(workers=1),
        )
        model = InsightAlignModel(seed=3)
        catalog = default_catalog()
        candidates = beam_search(
            model, archive.insight_for("D6"), beam_width=3
        )
        legacy_qors = [
            dict(run_flow(
                "D6",
                apply_recipe_set(list(c.recipe_set), catalog),
                seed=3,
            ).qor)
            for c in candidates
        ]
        return archive, model, candidates, legacy_qors

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical(self, setup, tmp_path, workers):
        from repro.core.crossval import evaluate_design

        archive, model, candidates, legacy_qors = setup
        row = evaluate_design(
            model, archive, "D6", beam_width=3, seed=3,
            runtime=RuntimeConfig(
                workers=workers,
                qor_cache_path=str(tmp_path / f"qor-{workers}"),
            ),
        )
        assert row.recommended_sets == [c.recipe_set for c in candidates]
        assert row.recommended_qors == legacy_qors


# ----------------------------------------------------------------------
# Typed errors under fault injection: same class, message, and attempt
# count at any worker count.
# ----------------------------------------------------------------------
class TestFaultEquivalence:
    PLAN = FaultPlan(
        rate=0.6,
        kinds=(FaultKind.CRASH, FaultKind.HANG),
        seed=17,
        hang_s=7200.0,
    )

    def _jobs(self):
        return [
            FlowJob("T", FlowParameters(opt=OptParams(vt_swap_bias=b)), 0)
            for b in (0.9, 1.0, 1.1, 1.2, 1.3)
        ]

    @pytest.fixture(scope="class")
    def reference(self):
        config = RuntimeConfig(
            workers=1,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            deadline_s=3600.0,
            fault_plan=self.PLAN,
            seed=17,
        )
        with FlowSession(config, flow_fn=toy_flow) as session:
            return session.evaluate(self._jobs())

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_outcomes_identical(self, reference, workers):
        config = RuntimeConfig(
            workers=workers,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            deadline_s=3600.0,
            fault_plan=self.PLAN,
            seed=17,
        )
        with FlowSession(config, flow_fn=toy_flow) as session:
            outcomes = session.evaluate(self._jobs())
        assert any(not o.ok for o in reference), "plan injected no faults"
        for got, want in zip(outcomes, reference):
            assert got.ok == want.ok
            assert len(got.attempts) == len(want.attempts)
            if want.ok:
                assert got.result.qor == want.result.qor
            else:
                assert type(got.error) is type(want.error)
                assert isinstance(got.error, (FlowCrash, FlowTimeout))
                assert str(got.error) == str(want.error)

    def test_strict_raises_same_first_error(self):
        errors = []
        for workers in WORKER_COUNTS:
            config = RuntimeConfig(
                workers=workers,
                policy=RetryPolicy(
                    max_attempts=2, base_delay_s=0.0, jitter=0.0
                ),
                deadline_s=3600.0,
                fault_plan=self.PLAN,
                seed=17,
            )
            with FlowSession(config, flow_fn=toy_flow) as session:
                with pytest.raises(FlowError) as info:
                    session.evaluate_strict(self._jobs())
            errors.append((type(info.value), str(info.value)))
        assert len(set(errors)) == 1
