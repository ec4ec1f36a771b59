"""Fused DPO training step and vectorized pair sampling.

Two perf rewrites in :mod:`repro.core.alignment` must not change training:

- ``_fused_pair_log_probs`` runs winners and losers through ONE stacked
  ``batched_logits`` call; the model forward is row-independent, so per-row
  log-probs — and the loss built from them — are *exactly* equal to the
  two-pass formulation.  Gradients may differ only by float accumulation
  order (one 2B-row reduction vs two B-row reductions summed).
- the vectorized ``_epoch_batches`` must emit bit-identical batches, in the
  same order, from the same RNG state as the original per-pair Python loop
  (so pre-rewrite checkpoints resume identically).
"""

import numpy as np

from repro.core.alignment import (
    AlignmentConfig,
    AlignmentTrainer,
    _fused_pair_log_probs,
)
from repro.core.model import InsightAlignModel
from repro.core.policy import sequence_log_probs as _batched_log_prob
from repro.core.qor import QoRIntention
from repro.nn.tensor import Tensor
from repro.utils.rng import derive_rng

from test_alignment_internals import _toy_dataset


def _fixed_batch(seed=0, batch=12, n_recipes=40):
    rng = derive_rng(seed, "fused")
    from repro.insights.schema import INSIGHT_DIMS

    insights = rng.normal(size=(batch, INSIGHT_DIMS))
    winners = rng.integers(0, 2, size=(batch, n_recipes))
    losers = rng.integers(0, 2, size=(batch, n_recipes))
    margins = rng.uniform(0.1, 2.0, size=(batch,))
    return insights, winners, losers, margins


def _unfused_loss(model, insights, winners, losers, margins):
    """The pre-fusion two-pass formulation, kept here as the oracle."""
    logp_w = _batched_log_prob(model, insights, winners)
    logp_l = _batched_log_prob(model, insights, losers)
    return (Tensor(margins) - (logp_w - logp_l)).clip_min(0.0).mean()


class TestFusedStep:
    def test_forward_exactly_matches_two_pass(self):
        model = InsightAlignModel(seed=3)
        insights, winners, losers, _ = _fixed_batch()
        fused_w, fused_l = _fused_pair_log_probs(
            model, insights, winners, losers
        )
        np.testing.assert_array_equal(
            fused_w.numpy(), _batched_log_prob(model, insights, winners).numpy()
        )
        np.testing.assert_array_equal(
            fused_l.numpy(), _batched_log_prob(model, insights, losers).numpy()
        )

    def test_loss_exactly_matches_two_pass(self):
        model = InsightAlignModel(seed=5)
        insights, winners, losers, margins = _fixed_batch(seed=1)
        logp_w, logp_l = _fused_pair_log_probs(model, insights, winners, losers)
        fused = (Tensor(margins) - (logp_w - logp_l)).clip_min(0.0).mean()
        unfused = _unfused_loss(model, insights, winners, losers, margins)
        assert float(fused.item()) == float(unfused.item())

    def test_gradients_match_two_pass(self):
        """Grads agree to accumulation-order noise (~1e-14), nothing more."""
        insights, winners, losers, margins = _fixed_batch(seed=2)

        def grads(loss_fn):
            model = InsightAlignModel(seed=7)
            model.zero_grad()
            loss_fn(model).backward()
            return [p.grad.copy() for p in model.parameters()]

        fused_grads = grads(lambda m: (
            lambda w_l: (Tensor(margins) - (w_l[0] - w_l[1]))
            .clip_min(0.0).mean()
        )(_fused_pair_log_probs(m, insights, winners, losers)))
        unfused_grads = grads(
            lambda m: _unfused_loss(m, insights, winners, losers, margins)
        )
        assert len(fused_grads) == len(unfused_grads)
        for a, b in zip(fused_grads, unfused_grads):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)


def _reference_epoch_batches(trainer, per_design, rng):
    """The original per-pair Python loop, verbatim (the rewrite's oracle)."""
    cfg = trainer.config
    all_insights, winners, losers, margins = [], [], [], []
    for design, (insight, recipes, scores) in per_design.items():
        count = len(scores)
        if count < 2:
            continue
        idx_i = rng.integers(0, count, size=cfg.pairs_per_design)
        idx_j = rng.integers(0, count, size=cfg.pairs_per_design)
        for i, j in zip(idx_i, idx_j):
            gap = scores[i] - scores[j]
            if abs(gap) < cfg.min_score_gap:
                continue
            win, lose = (i, j) if gap > 0 else (j, i)
            all_insights.append(insight)
            winners.append(recipes[win])
            losers.append(recipes[lose])
            margins.append(cfg.lam * abs(gap))
    order = rng.permutation(len(margins))
    all_insights = np.array(all_insights)
    winners = np.array(winners)
    losers = np.array(losers)
    margins = np.array(margins)
    batches = []
    for start in range(0, len(order), cfg.batch_size):
        sel = order[start:start + cfg.batch_size]
        batches.append(
            (all_insights[sel], winners[sel], losers[sel], margins[sel])
        )
    return batches


class TestVectorizedEpochBatches:
    def test_bit_identical_to_reference_loop(self):
        dataset = _toy_dataset(n_points=16, n_designs=3, seed=4)
        trainer = AlignmentTrainer(
            AlignmentConfig(pairs_per_design=50, batch_size=16, seed=6)
        )
        per_design = trainer._prepare(dataset, QoRIntention())
        got = trainer._epoch_batches(per_design, derive_rng(6, "epoch"))
        want = _reference_epoch_batches(
            trainer, per_design, derive_rng(6, "epoch")
        )
        assert len(got) == len(want)
        for (gi, gw, gl, gm), (wi, ww, wl, wm) in zip(got, want):
            np.testing.assert_array_equal(gi, wi)
            np.testing.assert_array_equal(gw, ww)
            np.testing.assert_array_equal(gl, wl)
            np.testing.assert_array_equal(gm, wm)

    def test_rng_state_identical_after_sampling(self):
        """Both implementations consume exactly the same RNG draws."""
        dataset = _toy_dataset(seed=9)
        trainer = AlignmentTrainer(AlignmentConfig(pairs_per_design=30))
        per_design = trainer._prepare(dataset, QoRIntention())
        rng_a = derive_rng(2, "state")
        rng_b = derive_rng(2, "state")
        trainer._epoch_batches(per_design, rng_a)
        _reference_epoch_batches(trainer, per_design, rng_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
