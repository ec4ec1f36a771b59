"""Distributed actor/learner online loop: determinism, elasticity, async.

The contract under test (ISSUE 7):

- **sync** mode is bit-identical to the serial
  :class:`~repro.core.online.OnlineFineTuner` at any actor count —
  proposals, scores, model weights, and the checkpoint *bytes* — even
  while seeded chaos kills actors mid-run;
- a mid-run kill of the learner resumes from its checkpoint
  bit-identically to an uninterrupted run;
- **async** mode completes every iteration with every experience record
  accounted for, bounded by ``max_policy_lag``, surviving actor kills;
- a respawn-budget-dry pool degrades to in-process execution (or raises
  when ``degrade_to_serial`` is off).

The flow callable is the cheap deterministic stand-in used across the
online tests (module-level so actor processes can pickle it).
"""

import numpy as np
import pytest

from repro.core.dataset import DataPoint, OfflineDataset
from repro.core.model import InsightAlignModel
from repro.core.online import OnlineConfig, OnlineFineTuner
from repro.distributed import (
    DistributedConfig,
    DistributedOnlineFineTuner,
    fine_tuner_for,
)
from repro.errors import RuntimeConfigError, TrainingError, WorkerPoolError
from repro.flow.result import FlowResult
from repro.flow.runner import REQUIRED_QOR_KEYS
from repro.insights.extractor import InsightVector
from repro.insights.schema import INSIGHT_DIMS
from repro.runtime import checkpoint_digest

DESIGN = "D6"  # real profile name: the loop resolves it via get_profile()


@pytest.fixture(scope="module")
def archive():
    """A tiny synthetic archive (no real flow runs)."""
    rng = np.random.default_rng(0)
    points = []
    insights = {DESIGN: InsightVector(
        DESIGN, rng.normal(size=(INSIGHT_DIMS,)), {}
    )}
    for _ in range(30):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=40))
        qor = {key: float(rng.uniform(0.5, 2.0))
               for key in REQUIRED_QOR_KEYS}
        points.append(DataPoint(DESIGN, bits, qor))
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


def make_config(iterations=4, distributed=None, **overrides):
    settings = dict(
        iterations=iterations, k=3, insight_refresh=0.0, seed=3,
        distributed=distributed,
    )
    settings.update(overrides)
    return OnlineConfig(**settings)


def run_loop(archive, config):
    model = InsightAlignModel(seed=9)
    with fine_tuner_for(config, flow_fn=fake_flow) as tuner:
        result = tuner.run(model, archive, DESIGN)
        stats = (tuner.actor_stats()
                 if isinstance(tuner, DistributedOnlineFineTuner) else {})
    return model, result, stats


def assert_same_trajectory(result_a, result_b):
    assert [r.recipe_sets for r in result_a.records] == \
           [r.recipe_sets for r in result_b.records]
    assert [r.scores for r in result_a.records] == \
           [r.scores for r in result_b.records]
    assert [r.qors for r in result_a.records] == \
           [r.qors for r in result_b.records]
    assert [r.best_score_so_far for r in result_a.records] == \
           [r.best_score_so_far for r in result_b.records]


def assert_same_weights(model_a, model_b):
    state_a, state_b = model_a.state_dict(), model_b.state_dict()
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name])


class TestConfigValidation:
    def test_defaults_validate(self):
        config = DistributedConfig()
        assert config.actors == 1 and config.mode == "sync"
        assert config.window(5) == 10  # k * (max_policy_lag + 1)
        assert config.replace(queue_capacity=7).window(5) == 7

    @pytest.mark.parametrize("overrides", [
        dict(actors=0),
        dict(mode="turbo"),
        dict(max_policy_lag=-1),
        dict(max_actor_respawns=-1),
        dict(queue_capacity=0),
        dict(kill_rate=1.5),
    ])
    def test_bad_values_are_typed(self, overrides):
        with pytest.raises(RuntimeConfigError):
            DistributedConfig(**overrides)

    def test_online_config_rejects_wrong_type(self):
        with pytest.raises(TrainingError, match="DistributedConfig"):
            OnlineConfig(distributed="async")

    def test_serial_tuner_rejects_distributed_config(self):
        config = make_config(distributed=DistributedConfig())
        with pytest.raises(TrainingError, match="DistributedOnlineFineTuner"):
            OnlineFineTuner(config)

    def test_distributed_tuner_requires_distributed_config(self):
        with pytest.raises(TrainingError, match="config.distributed"):
            DistributedOnlineFineTuner(make_config())

    def test_factory_dispatches_on_config(self):
        serial = fine_tuner_for(make_config(), flow_fn=fake_flow)
        assert type(serial) is OnlineFineTuner
        serial.close()
        config = make_config(distributed=DistributedConfig())
        distributed = fine_tuner_for(config, flow_fn=fake_flow)
        assert isinstance(distributed, DistributedOnlineFineTuner)
        distributed.close()

    def test_tuner_is_a_context_manager(self, archive):
        with OnlineFineTuner(make_config(iterations=1),
                             flow_fn=fake_flow) as tuner:
            result = tuner.run(InsightAlignModel(seed=9), archive, DESIGN)
        assert len(result.records) == 1


class TestSyncBitIdentity:
    """sync mode == the serial loop, down to the checkpoint bytes."""

    def serial_reference(self, archive, tmp_path):
        ckpt = str(tmp_path / "serial.ck")
        model, result, _ = run_loop(
            archive, make_config(checkpoint_path=ckpt)
        )
        return model, result, checkpoint_digest(ckpt)

    @pytest.mark.parametrize("actors", [1, 2])
    def test_matches_serial_including_checkpoint_bytes(
        self, archive, tmp_path, actors
    ):
        serial_model, serial_result, serial_digest = \
            self.serial_reference(archive, tmp_path)
        ckpt = str(tmp_path / f"sync{actors}.ck")
        model, result, stats = run_loop(archive, make_config(
            checkpoint_path=ckpt,
            distributed=DistributedConfig(actors=actors),
        ))
        assert_same_trajectory(serial_result, result)
        assert_same_weights(serial_model, model)
        assert checkpoint_digest(ckpt) == serial_digest
        assert stats["records_total"] == 4 * 3
        assert not stats["degraded"]

    def test_chaos_kills_do_not_perturb_the_trajectory(
        self, archive, tmp_path
    ):
        """Actors die mid-run (seeded), tasks re-dispatch — and the run
        is still bit-identical to serial, checkpoint bytes included."""
        serial_model, serial_result, serial_digest = \
            self.serial_reference(archive, tmp_path)
        ckpt = str(tmp_path / "chaos.ck")
        model, result, stats = run_loop(archive, make_config(
            checkpoint_path=ckpt,
            distributed=DistributedConfig(
                actors=2, kill_rate=0.3, kill_seed=11,
                max_actor_respawns=64,
            ),
        ))
        assert stats["restarts"] > 0, "the seeded chaos killed no actors"
        assert stats["reissued"] > 0
        assert_same_trajectory(serial_result, result)
        assert_same_weights(serial_model, model)
        assert checkpoint_digest(ckpt) == serial_digest

    def test_budget_dry_pool_degrades_in_process(self, archive, tmp_path):
        """kill_rate=1 with no respawns: every actor dies on first task;
        the loop finishes in-process, still bit-identical to serial."""
        serial_model, serial_result, serial_digest = \
            self.serial_reference(archive, tmp_path)
        ckpt = str(tmp_path / "degraded.ck")
        model, result, stats = run_loop(archive, make_config(
            checkpoint_path=ckpt,
            distributed=DistributedConfig(
                actors=2, kill_rate=1.0, kill_seed=1,
                max_actor_respawns=0,
            ),
        ))
        assert stats["degraded"]
        assert_same_trajectory(serial_result, result)
        assert_same_weights(serial_model, model)
        assert checkpoint_digest(ckpt) == serial_digest

    def test_budget_dry_pool_raises_when_degrade_off(self, archive):
        config = make_config(distributed=DistributedConfig(
            actors=2, kill_rate=1.0, kill_seed=1,
            max_actor_respawns=0, degrade_to_serial=False,
        ))
        with fine_tuner_for(config, flow_fn=fake_flow) as tuner:
            with pytest.raises(WorkerPoolError, match="respawn budget"):
                tuner.run(InsightAlignModel(seed=9), archive, DESIGN)


class TestCheckpointResume:
    """Kill the learner between iterations; resume bit-identically."""

    @pytest.mark.parametrize("actors", [1, 2])
    def test_resume_matches_uninterrupted(self, archive, tmp_path, actors):
        dist = DistributedConfig(actors=actors)
        full_ckpt = str(tmp_path / "full.ck")
        model_full, result_full, _ = run_loop(archive, make_config(
            iterations=4, checkpoint_path=full_ckpt, distributed=dist,
        ))

        # The "killed" learner: same run, stopped after two iterations
        # (its checkpoint is what a mid-run kill leaves behind).
        part_ckpt = str(tmp_path / "part.ck")
        run_loop(archive, make_config(
            iterations=2, checkpoint_path=part_ckpt, distributed=dist,
        ))
        resumed_ckpt = str(tmp_path / "resumed.ck")
        model_resumed, result_resumed, _ = run_loop(archive, make_config(
            iterations=4, checkpoint_path=resumed_ckpt,
            resume_from=part_ckpt, distributed=dist,
        ))

        assert len(result_resumed.records) == 4
        assert_same_trajectory(result_full, result_resumed)
        assert_same_weights(model_full, model_resumed)
        assert checkpoint_digest(resumed_ckpt) == \
            checkpoint_digest(full_ckpt)

    def test_resumed_distributed_matches_serial_bytes(
        self, archive, tmp_path
    ):
        """The strongest form: serial uninterrupted vs distributed
        killed-and-resumed — same final checkpoint bytes."""
        serial_ckpt = str(tmp_path / "serial.ck")
        run_loop(archive, make_config(
            iterations=4, checkpoint_path=serial_ckpt,
        ))
        part_ckpt = str(tmp_path / "part.ck")
        run_loop(archive, make_config(
            iterations=2, checkpoint_path=part_ckpt,
            distributed=DistributedConfig(actors=2),
        ))
        resumed_ckpt = str(tmp_path / "resumed.ck")
        run_loop(archive, make_config(
            iterations=4, checkpoint_path=resumed_ckpt,
            resume_from=part_ckpt,
            distributed=DistributedConfig(actors=2),
        ))
        assert checkpoint_digest(resumed_ckpt) == \
            checkpoint_digest(serial_ckpt)


class TestAsyncMode:
    def run_async(self, archive, **dist_overrides):
        dist = DistributedConfig(
            actors=dist_overrides.pop("actors", 3), mode="async",
            **dist_overrides,
        )
        return run_loop(archive, make_config(distributed=dist))

    def test_completes_all_iterations(self, archive):
        model, result, stats = self.run_async(archive)
        assert len(result.records) == 4
        # Every iteration accounts for all K proposals.
        for record in result.records:
            assert len(record.recipe_sets) + len(record.failures) == 3
        assert stats["records_total"] == 4 * 3
        assert stats["dropped_stale"] == 0
        assert stats["broadcasts"] > 0
        # The model learned from the experience stream.
        initial = InsightAlignModel(seed=9).state_dict()
        final = model.state_dict()
        assert any(
            not np.array_equal(initial[n], final[n]) for n in final
        )

    def test_survives_actor_kills_without_losing_experience(self, archive):
        model, result, stats = self.run_async(
            archive, kill_rate=0.5, kill_seed=7, max_actor_respawns=256,
        )
        assert len(result.records) == 4
        assert stats["restarts"] > 0, "the seeded chaos killed no actors"
        assert stats["reissued"] > 0
        # Arrivals minus stale drops == every record the updates consumed.
        consumed = stats["records_total"] - stats["dropped_stale"]
        assert consumed == 4 * 3
        assert not stats["degraded"]

    def test_zero_lag_drops_stale_records(self, archive):
        """max_policy_lag=0 with more actors than K forces staleness:
        records proposed >= 1 version ago are dropped and re-proposed."""
        model, result, stats = self.run_async(
            archive, actors=4, max_policy_lag=0,
        )
        assert len(result.records) == 4
        assert stats["dropped_stale"] > 0
        consumed = stats["records_total"] - stats["dropped_stale"]
        assert consumed == 4 * 3

    def test_degrades_in_process_and_completes(self, archive):
        model, result, stats = self.run_async(
            archive, actors=2, kill_rate=1.0, kill_seed=1,
            max_actor_respawns=0,
        )
        assert len(result.records) == 4
        assert stats["degraded"]
        consumed = stats["records_total"] - stats["dropped_stale"]
        assert consumed == 4 * 3

    def test_checkpoint_resume_completes(self, archive, tmp_path):
        """Async resume: not bit-identical to an uninterrupted async run
        (arrival order is wall-clock), but the loop restores its state
        and finishes the remaining iterations."""
        dist = DistributedConfig(actors=2, mode="async")
        part_ckpt = str(tmp_path / "part.ck")
        run_loop(archive, make_config(
            iterations=2, checkpoint_path=part_ckpt, distributed=dist,
        ))
        model, result, stats = run_loop(archive, make_config(
            iterations=4, resume_from=part_ckpt, distributed=dist,
        ))
        assert len(result.records) == 4
        assert [r.iteration for r in result.records] == [0, 1, 2, 3]
