"""Additional online-loop tests: proposal hygiene, config, updates."""

import numpy as np
import pytest

from repro.core.beam import beam_search
from repro.core.model import InsightAlignModel
from repro.core.online import OnlineConfig, OnlineFineTuner
from repro.core.policy import sequence_log_prob_value
from repro.errors import TrainingError
from repro.insights.schema import INSIGHT_DIMS
from repro.utils.rng import derive_rng


class TestProposalMachinery:
    def test_propose_skips_seen(self):
        model = InsightAlignModel(seed=2)
        tuner = OnlineFineTuner(OnlineConfig(k=3, explore_samples=1, seed=0))
        insight = np.random.default_rng(0).normal(size=(INSIGHT_DIMS,))
        rng = derive_rng(0, "prop")
        # Poison the seen-set with the entire beam frontier.
        frontier = {
            c.recipe_set for c in beam_search(model, insight, beam_width=12)
        }
        picks = tuner._propose(model, insight, frontier, rng)
        assert picks
        assert not (set(picks) & frontier)

    def test_propose_without_history(self):
        model = InsightAlignModel(seed=2)
        tuner = OnlineFineTuner(OnlineConfig(k=4, seed=0))
        insight = np.random.default_rng(1).normal(size=(INSIGHT_DIMS,))
        picks = tuner._propose(model, insight, set(), derive_rng(1, "p"))
        assert len(picks) == 4
        assert len(set(picks)) == 4


class TestOnlineUpdates:
    def test_update_moves_policy_toward_winner(self):
        """After updates on a clear preference, the winner gains likelihood."""
        model = InsightAlignModel(seed=4)
        tuner = OnlineFineTuner(OnlineConfig(
            learning_rate=3e-3, ppo_weight=0.0, dpo_pairs_per_update=24, seed=0
        ))
        from repro.nn.optim import Adam

        optimizer = Adam(model.parameters(), lr=3e-3)
        rng = derive_rng(3, "upd")
        insight = np.random.default_rng(2).normal(size=(INSIGHT_DIMS,))
        winner = tuple(int(b) for b in rng.integers(0, 2, size=40))
        loser = tuple(int(b) for b in rng.integers(0, 2, size=40))
        observed = [(winner, 2.0), (loser, -2.0)]
        before = (
            sequence_log_prob_value(model, insight, winner)
            - sequence_log_prob_value(model, insight, loser)
        )
        for _ in range(5):
            tuner._update(model, optimizer, insight, [winner, loser],
                          [2.0, -2.0], observed, rng)
        after = (
            sequence_log_prob_value(model, insight, winner)
            - sequence_log_prob_value(model, insight, loser)
        )
        assert after > before

    def test_update_noop_without_signal(self):
        model = InsightAlignModel(seed=4)
        tuner = OnlineFineTuner(OnlineConfig(ppo_weight=0.0, seed=0))
        from repro.nn.optim import Adam

        optimizer = Adam(model.parameters(), lr=1e-3)
        insight = np.random.default_rng(2).normal(size=(INSIGHT_DIMS,))
        weights_before = model.parameters()[0].data.copy()
        # Single observation -> no pairs -> no update.
        tuner._update(
            model, optimizer, insight, [tuple([0] * 40)], [1.0],
            [(tuple([0] * 40), 1.0)], derive_rng(0, "n"),
        )
        np.testing.assert_array_equal(weights_before, model.parameters()[0].data)

    def test_nan_gradient_refuses_update(self):
        """A NaN weight makes a NaN gradient norm: the update raises before
        the optimizer steps, so no weight and no Adam moment moves."""
        model = InsightAlignModel(seed=4)
        model.head.weight.data[0, 0] = np.nan
        tuner = OnlineFineTuner(OnlineConfig(ppo_weight=0.0, seed=0))
        from repro.nn.optim import Adam

        optimizer = Adam(model.parameters(), lr=1e-3)
        before = model.state_dict()
        rng = derive_rng(3, "upd")
        insight = np.random.default_rng(2).normal(size=(INSIGHT_DIMS,))
        winner = tuple(int(b) for b in rng.integers(0, 2, size=40))
        loser = tuple(int(b) for b in rng.integers(0, 2, size=40))
        with pytest.raises(TrainingError, match="gradient norm"):
            tuner._update(model, optimizer, insight, [winner, loser],
                          [2.0, -2.0], [(winner, 2.0), (loser, -2.0)], rng)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[name])
        assert optimizer.state_dict()["step_count"] == 0


class TestPpoClipValidation:
    def test_non_positive_clip_rejected_at_construction(self):
        """With PPO on, a clip range <= 0 fails before any flow runs."""
        for clip in (0.0, -0.2):
            with pytest.raises(TrainingError, match="ppo_clip"):
                OnlineConfig(ppo_clip=clip)

    def test_clip_ignored_without_ppo(self):
        config = OnlineConfig(ppo_weight=0.0, ppo_clip=0.0)
        assert config.ppo_clip == 0.0


class TestLoopBoundsValidation:
    def test_bad_bounds_rejected_at_construction(self):
        """``min_successes`` and ``checkpoint_every`` fail before any
        flow runs, like ``ppo_clip``."""
        with pytest.raises(TrainingError, match="min_successes"):
            OnlineConfig(min_successes=-1)
        with pytest.raises(TrainingError, match="checkpoint_every"):
            OnlineConfig(checkpoint_every=0)
