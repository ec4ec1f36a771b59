"""Online loop under injected faults: graceful degradation + crash/resume.

The flow callable here is a cheap deterministic stand-in for ``run_flow``
(the loop's contract is the callable's signature and the QoR dict), so
these tests exercise ten-iteration trajectories in milliseconds.  Faults
come from the session's own seeded fault plan, which keys every proposal
on its global index ``iteration * k + i`` in the serial loop and in the
distributed learner alike.
"""

import logging

import numpy as np
import pytest

from repro.core.dataset import DataPoint, OfflineDataset
from repro.core.model import InsightAlignModel
from repro.core.online import FlowFailure, OnlineConfig, OnlineFineTuner
from repro.distributed import DistributedConfig, fine_tuner_for
from repro.errors import CheckpointError, TrainingError
from repro.flow.result import FlowResult
from repro.flow.runner import REQUIRED_QOR_KEYS
from repro.insights.extractor import InsightVector
from repro.insights.schema import INSIGHT_DIMS
from repro.runtime import (
    FaultKind,
    FaultPlan,
    RetryPolicy,
    RuntimeConfig,
    checkpoint_digest,
)

DESIGN = "D6"  # real profile name: the loop resolves it via get_profile()


@pytest.fixture(scope="module")
def archive():
    """A tiny synthetic archive (no real flow runs)."""
    rng = np.random.default_rng(0)
    points = []
    insights = {}
    for design in (DESIGN, "D10"):
        insights[design] = InsightVector(
            design, rng.normal(size=(INSIGHT_DIMS,)), {}
        )
        for _ in range(30):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=40))
            qor = {key: float(rng.uniform(0.5, 2.0))
                   for key in REQUIRED_QOR_KEYS}
            points.append(DataPoint(design, bits, qor))
    return OfflineDataset(points=points, insights=insights, seed=0)


def fake_flow(design, params, seed=0):
    """Deterministic per-parameter QoR, no simulation."""
    fingerprint = hash((
        round(params.placer.effort, 6),
        round(params.opt.vt_swap_bias, 6),
        round(params.route.effort, 6),
    ))
    base = 1.0 + (abs(fingerprint) % 1000) / 1000.0
    return FlowResult(
        design=str(design),
        qor={key: base * (index + 1) * 0.1
             for index, key in enumerate(REQUIRED_QOR_KEYS)},
    )


def faulty_runtime(rate, seed=5, max_attempts=2):
    """A session fault plan: each job gets its own injector and virtual
    clock, keyed by the proposal's global index."""
    return RuntimeConfig(
        fault_plan=FaultPlan(
            rate=rate, seed=seed, hang_s=100.0,
            kinds=(FaultKind.CRASH, FaultKind.HANG, FaultKind.CORRUPT_QOR),
        ),
        policy=RetryPolicy(max_attempts=max_attempts, base_delay_s=0.5),
        deadline_s=10.0, seed=seed,
    )


class TestGracefulDegradation:
    def test_ten_iterations_survive_30pct_faults(self, archive, caplog):
        """The ISSUE acceptance scenario: 30% fault rate, 10 iterations."""
        tuner = OnlineFineTuner(
            OnlineConfig(iterations=10, k=3, insight_refresh=0.0, seed=3,
                         runtime=faulty_runtime(rate=0.3)),
            flow_fn=fake_flow,
        )
        model = InsightAlignModel(seed=5)
        initial = {n: w.copy() for n, w in model.state_dict().items()}
        with caplog.at_level(logging.WARNING, logger="repro.core.online"):
            result = tuner.run(model, archive, DESIGN)

        assert len(result.records) == 10
        assert len(result.failures) > 0
        # Every record accounts for all K proposals: survivors + failures.
        for record in result.records:
            assert len(record.recipe_sets) + len(record.failures) == 3
            assert len(record.recipe_sets) == len(record.scores)
        # Every terminal failure is typed and logged.
        failures = result.failures
        assert failures, "a 30% fault rate over 30 runs must kill some"
        for failure in failures:
            assert isinstance(failure, FlowFailure)
            assert failure.error_type in {
                "FlowCrash", "FlowTimeout", "CorruptQoR"
            }
            assert failure.attempts >= 1
        logged = [r for r in caplog.records if "evaluation failed" in r.message]
        assert len(logged) == len(failures)
        # The model still learned from the survivors.
        final = model.state_dict()
        assert any(not np.array_equal(initial[n], final[n]) for n in final)

    def test_total_blackout_skips_updates_but_completes(self, archive):
        """rate=1.0: zero survivors, no update, run still finishes."""
        tuner = OnlineFineTuner(
            OnlineConfig(iterations=3, k=2, insight_refresh=0.0, seed=3,
                         runtime=faulty_runtime(rate=1.0, max_attempts=1)),
            flow_fn=fake_flow,
        )
        model = InsightAlignModel(seed=5)
        initial = {n: w.copy() for n, w in model.state_dict().items()}
        result = tuner.run(model, archive, DESIGN)
        assert len(result.records) == 3
        assert all(not record.updated for record in result.records)
        assert all(record.scores == [] for record in result.records)
        assert len(result.failures) == 6
        final = model.state_dict()
        for name in final:
            np.testing.assert_array_equal(initial[name], final[name])
        # Degenerate records report NaN rather than fake numbers.
        assert np.isnan(result.records[0].best_score_so_far)

    def test_min_successes_floor_gates_the_update(self, archive):
        """With a floor of K, any failure in the batch skips the update."""
        tuner = OnlineFineTuner(
            OnlineConfig(iterations=4, k=3, min_successes=3,
                         insight_refresh=0.0, seed=3,
                         runtime=faulty_runtime(rate=0.5, max_attempts=1)),
            flow_fn=fake_flow,
        )
        result = tuner.run(InsightAlignModel(seed=5), archive, DESIGN)
        for record in result.records:
            assert record.updated == (len(record.scores) >= 3)
        assert any(not record.updated for record in result.records)

    def test_fault_free_executor_updates_every_iteration(self, archive):
        tuner = OnlineFineTuner(
            OnlineConfig(iterations=3, k=3, insight_refresh=0.0, seed=3),
            flow_fn=fake_flow,
        )
        result = tuner.run(InsightAlignModel(seed=5), archive, DESIGN)
        assert all(record.updated for record in result.records)
        assert result.failures == []


class TestGlobalProposalKeying:
    """Each proposal draws the fault stream of its global index, so
    iterations fail different slots — in the serial loop and, identically,
    over sync-mode actors."""

    def test_iterations_do_not_replay_the_first_failures(self, archive):
        tuner = OnlineFineTuner(
            OnlineConfig(
                iterations=8, k=3, insight_refresh=0.0, seed=3,
                runtime=RuntimeConfig(
                    fault_plan=FaultPlan(
                        rate=0.5, seed=5,
                        kinds=(FaultKind.CRASH, FaultKind.HANG,
                               FaultKind.CORRUPT_QOR),
                    ),
                    policy=RetryPolicy(max_attempts=1), deadline_s=10.0,
                ),
            ),
            flow_fn=fake_flow,
        )
        slots = []
        evaluate = tuner._evaluate

        def spy(*args, **kwargs):
            reports = evaluate(*args, **kwargs)
            slots.append(tuple(
                "ok" if report.ok else type(report.error).__name__
                for report in reports
            ))
            return reports

        tuner._evaluate = spy
        result = tuner.run(InsightAlignModel(seed=5), archive, DESIGN)
        assert len(slots) == 8
        assert result.failures, "a 50% fault rate over 24 runs must kill some"
        # Keyed by batch position, every iteration would replay
        # iteration 0's failed slots and error types.
        assert len(set(slots)) > 1, slots

    def test_sync_actors_match_serial_under_a_fault_plan(
        self, archive, tmp_path
    ):
        runs = {}
        for name, distributed in (
            ("serial", None), ("sync", DistributedConfig(actors=2)),
        ):
            ckpt = str(tmp_path / f"{name}.ck")
            model = InsightAlignModel(seed=9)
            config = OnlineConfig(
                iterations=4, k=3, insight_refresh=0.0, seed=3,
                runtime=faulty_runtime(rate=0.5, max_attempts=1),
                checkpoint_path=ckpt,
                distributed=distributed,
            )
            with fine_tuner_for(config, flow_fn=fake_flow) as tuner:
                result = tuner.run(model, archive, DESIGN)
            runs[name] = (model, result, checkpoint_digest(ckpt))
        (serial_model, serial, serial_digest) = runs["serial"]
        (sync_model, sync, sync_digest) = runs["sync"]
        assert serial.failures, "the plan injected no terminal failure"
        for attr in ("recipe_sets", "scores", "qors", "best_score_so_far",
                     "updated"):
            assert [getattr(r, attr) for r in serial.records] == \
                [getattr(r, attr) for r in sync.records], attr
        assert [vars(f) for f in serial.failures] == \
            [vars(f) for f in sync.failures]
        for name, value in serial_model.state_dict().items():
            np.testing.assert_array_equal(
                value, sync_model.state_dict()[name], err_msg=name
            )
        assert sync_digest == serial_digest


class TestOnlineCheckpointResume:
    def run_loop(self, archive, config):
        model = InsightAlignModel(seed=9)
        tuner = OnlineFineTuner(config, flow_fn=fake_flow)
        result = tuner.run(model, archive, DESIGN)
        return model, result

    def test_kill_and_resume_matches_uninterrupted(self, archive, tmp_path):
        ckpt = str(tmp_path / "online.ck")
        common = dict(k=3, insight_refresh=0.0, seed=3)

        model_a, result_a = self.run_loop(
            archive, OnlineConfig(iterations=4, **common)
        )
        self.run_loop(
            archive,
            OnlineConfig(iterations=2, checkpoint_path=ckpt, **common),
        )
        model_c, result_c = self.run_loop(
            archive, OnlineConfig(iterations=4, resume_from=ckpt, **common)
        )

        state_a, state_c = model_a.state_dict(), model_c.state_dict()
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_c[name])
        assert len(result_c.records) == 4
        assert [r.best_score_so_far for r in result_a.records] == \
               [r.best_score_so_far for r in result_c.records]
        assert [r.recipe_sets for r in result_a.records] == \
               [r.recipe_sets for r in result_c.records]

    def test_resume_on_wrong_design_rejected(self, archive, tmp_path):
        ckpt = str(tmp_path / "online.ck")
        self.run_loop(archive, OnlineConfig(
            iterations=1, k=2, insight_refresh=0.0, seed=3,
            checkpoint_path=ckpt,
        ))
        tuner = OnlineFineTuner(
            OnlineConfig(iterations=2, k=2, insight_refresh=0.0, seed=3,
                         resume_from=ckpt),
            flow_fn=fake_flow,
        )
        with pytest.raises(CheckpointError, match="design"):
            tuner.run(InsightAlignModel(seed=9), archive, "D10")

    def test_bad_config_values_are_typed(self, archive):
        with pytest.raises(TrainingError, match="min_successes"):
            OnlineFineTuner(
                OnlineConfig(iterations=1, min_successes=-1),
                flow_fn=fake_flow,
            ).run(InsightAlignModel(seed=1), archive, DESIGN)
        with pytest.raises(TrainingError, match="checkpoint_every"):
            OnlineFineTuner(
                OnlineConfig(iterations=1, checkpoint_every=0),
                flow_fn=fake_flow,
            ).run(InsightAlignModel(seed=1), archive, DESIGN)
