"""Tests for margin-DPO (eq. 2) and the PPO surrogate on the batched path.

Every preference loss reads its sequence likelihoods from one
``sequence_log_probs`` forward.  The per-sequence formulation those
forwards replaced — one ``model.logits`` graph per sequence — stays here
as the oracle the batched online update must match.
"""

import numpy as np
import pytest

from repro.core.alignment import AlignmentConfig, AlignmentTrainer
from repro.core.model import InsightAlignModel
from repro.core.online import OnlineConfig, OnlineFineTuner
from repro.core.policy import sequence_log_prob_value, sequence_log_probs
from repro.core.ppo import advantages_from_scores, ppo_surrogate
from repro.insights.schema import INSIGHT_DIMS
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.rng import derive_rng


@pytest.fixture()
def model():
    return InsightAlignModel(seed=8)


@pytest.fixture(scope="module")
def insight():
    return np.random.default_rng(6).normal(size=(INSIGHT_DIMS,))


def _sets(rng, count=2):
    return [tuple(rng.integers(0, 2, size=40)) for _ in range(count)]


def _rows(insight, *recipe_sets):
    """Width-``len(recipe_sets)`` batch arrays for one insight."""
    decisions = np.array(recipe_sets, dtype=np.int64)
    return np.broadcast_to(insight, (len(decisions), len(insight))), decisions


def _margin_loss(model, insight, winner, loser, margin):
    """Alignment's batched margin-DPO loss on one (winner, loser) pair."""
    insights, winners = _rows(insight, winner)
    _, losers = _rows(insight, loser)
    return AlignmentTrainer()._eval_loss(
        model, insights, winners, losers, np.array([margin])
    )


def _sampled_pair(insight, recipe_i, recipe_j, qor_i, qor_j, lam):
    """Alignment's pair sampler on a two-point design: one winner-first
    (winner, loser, margin) row, whatever order the points come in."""
    trainer = AlignmentTrainer(AlignmentConfig(
        lam=lam, pairs_per_design=32, min_score_gap=1e-9, batch_size=64,
    ))
    per_design = {"X": (
        insight,
        np.array([recipe_i, recipe_j], dtype=np.int64),
        np.array([qor_i, qor_j]),
    )}
    [(insights, winners, losers, margins)] = trainer._epoch_batches(
        per_design, derive_rng(0, "pair")
    )
    return insights[:1], winners[:1], losers[:1], margins[:1]


def _ppo_loss(model, insight, bits, old, advantage, clip_epsilon=0.2):
    """The batched PPO surrogate on one action (a width-1 forward)."""
    log_new = sequence_log_probs(model, *_rows(insight, bits))
    return ppo_surrogate(log_new, [old], [advantage], clip_epsilon).sum()


class TestMarginDpo:
    def test_zero_when_margin_satisfied(self, model, insight):
        rng = np.random.default_rng(2)
        a, b = _sets(rng)
        # With a zero margin the hinge is max(0, -gap): zero once the
        # winner is the more likely sequence.
        log_a = sequence_log_prob_value(model, insight, a)
        log_b = sequence_log_prob_value(model, insight, b)
        winner, loser = (a, b) if log_a > log_b else (b, a)
        loss = _margin_loss(model, insight, winner, loser, margin=0.0)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_grows_with_qor_gap(self, model, insight):
        rng = np.random.default_rng(3)
        a, b = _sets(rng)
        small = _margin_loss(model, insight, a, b, margin=2.0 * 0.1)
        large = _margin_loss(model, insight, a, b, margin=2.0 * 2.0)
        assert large >= small

    def test_symmetric_in_pair_order(self, model, insight):
        """eq. 2 with (i, j) swapped gives the same ordered pair and loss."""
        rng = np.random.default_rng(4)
        a, b = _sets(rng)
        ij = _sampled_pair(insight, a, b, 1.5, 0.5, lam=2.0)
        ji = _sampled_pair(insight, b, a, 0.5, 1.5, lam=2.0)
        for left, right in zip(ij, ji):
            np.testing.assert_array_equal(left, right)
        np.testing.assert_array_equal(ij[1][0], a)
        assert ij[3][0] == pytest.approx(2.0)
        assert AlignmentTrainer()._eval_loss(model, *ij) == pytest.approx(
            AlignmentTrainer()._eval_loss(model, *ji), abs=1e-9
        )

    def test_lambda_scales_margin(self, model, insight):
        rng = np.random.default_rng(5)
        a, b = _sets(rng)
        lam0 = _margin_loss(model, insight, a, b, margin=0.0 * 1.0)
        lam4 = _margin_loss(model, insight, a, b, margin=4.0 * 1.0)
        assert lam4 >= lam0

    def test_training_creates_required_gap(self, model, insight):
        rng = np.random.default_rng(6)
        winner, loser = _sets(rng)
        lam, dq = 2.0, 0.8
        trainer = AlignmentTrainer(AlignmentConfig(lam=lam, grad_clip=1e9))
        optimizer = Adam(model.parameters(), lr=5e-3)
        insights, winners = _rows(insight, winner)
        _, losers = _rows(insight, loser)
        for _ in range(60):
            loss, _ = trainer._step(
                model, optimizer, insights, winners, losers,
                np.array([lam * dq]),
            )
            if loss == 0.0:
                break
        gap = sequence_log_prob_value(model, insight, winner) - \
            sequence_log_prob_value(model, insight, loser)
        assert gap >= lam * dq - 0.2


class TestPpo:
    def test_positive_advantage_pushes_up(self, model, insight):
        rng = np.random.default_rng(7)
        (bits,) = _sets(rng, 1)
        old = sequence_log_prob_value(model, insight, bits)
        optimizer = Adam(model.parameters(), lr=2e-3)
        for _ in range(10):
            optimizer.zero_grad()
            _ppo_loss(model, insight, bits, old, advantage=1.0).backward()
            optimizer.step()
        assert sequence_log_prob_value(model, insight, bits) > old

    def test_negative_advantage_pushes_down(self, model, insight):
        rng = np.random.default_rng(8)
        (bits,) = _sets(rng, 1)
        old = sequence_log_prob_value(model, insight, bits)
        optimizer = Adam(model.parameters(), lr=2e-3)
        for _ in range(10):
            optimizer.zero_grad()
            _ppo_loss(model, insight, bits, old, advantage=-1.0).backward()
            optimizer.step()
        assert sequence_log_prob_value(model, insight, bits) < old

    def test_clipping_stops_gradient(self, model, insight):
        rng = np.random.default_rng(9)
        (bits,) = _sets(rng, 1)
        # old_log_prob far below current -> ratio >> 1+eps -> clipped branch
        old = sequence_log_prob_value(model, insight, bits) - 5.0
        model.zero_grad()
        _ppo_loss(
            model, insight, bits, old, advantage=1.0, clip_epsilon=0.2
        ).backward()
        max_grad = max(
            (np.abs(p.grad).max() for p in model.parameters() if p.grad is not None),
            default=0.0,
        )
        assert max_grad == pytest.approx(0.0, abs=1e-12)

    def test_bad_clip_raises(self, model, insight):
        for clip_epsilon in (0.0, -0.1):
            with pytest.raises(ValueError):
                _ppo_loss(model, insight, tuple([0] * 40), 0.0, 1.0,
                          clip_epsilon=clip_epsilon)

    def test_advantages_centered(self):
        adv = advantages_from_scores([1.0, 2.0, 3.0])
        assert adv.mean() == pytest.approx(0.0, abs=1e-12)
        assert adv.std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_scores_zero_advantage(self):
        adv = advantages_from_scores([2.0, 2.0, 2.0])
        assert np.all(adv == 0.0)


class TestPpoSurrogateRows:
    """``ppo_surrogate`` picks each row's branch of min(rA, clip(r)A)."""

    EPS = 0.2
    # Ratios e^0.05 and e^-0.1 sit inside [0.8, 1.2]; e^5 with A > 0 and
    # e^-5 with A < 0 take the clipped branch; e^5 with A < 0 and e^-5
    # with A > 0 are outside the range but keep the unclipped branch.
    LOG_NEW = np.array([-3.0, -2.0, -1.0, -4.0, -2.5, -1.5])
    OLD = LOG_NEW - np.array([0.05, 5.0, -5.0, -0.1, 5.0, -5.0])
    ADV = np.array([1.0, 1.0, -1.0, -0.5, -1.0, 0.7])
    CLIPPED = np.array([False, True, True, False, False, False])

    def _run(self):
        log_new = Tensor(self.LOG_NEW.copy(), requires_grad=True)
        loss = ppo_surrogate(log_new, self.OLD, self.ADV, self.EPS)
        loss.sum().backward()
        return loss.numpy(), log_new.grad

    def test_values_match_per_row_formula(self):
        values, _ = self._run()
        ratios = np.exp(self.LOG_NEW - self.OLD)
        for row, (ratio, adv) in enumerate(zip(ratios, self.ADV)):
            clipped = min(1.0 + self.EPS, max(1.0 - self.EPS, ratio))
            assert values[row] == -min(ratio * adv, clipped * adv)

    def test_unclipped_rows_carry_ratio_gradient(self):
        _, grad = self._run()
        ratio = np.exp(self.LOG_NEW - self.OLD)
        live = ~self.CLIPPED
        np.testing.assert_array_equal(grad[live], (-self.ADV * ratio)[live])

    def test_clipped_rows_add_exactly_zero_gradient(self):
        _, grad = self._run()
        assert np.all(grad[self.CLIPPED] == 0.0)

    def test_bad_clip_raises(self):
        for clip_epsilon in (0.0, -0.5):
            with pytest.raises(ValueError):
                ppo_surrogate(Tensor(self.LOG_NEW), self.OLD, self.ADV,
                              clip_epsilon)


# ----------------------------------------------------------------------
# The per-sequence formulation: one autograd graph per sequence.
def _oracle_log_prob(model, insight, recipe_set):
    decisions = np.asarray(recipe_set, dtype=np.int64)
    logits = model.logits(insight, decisions)
    selected = Tensor(decisions.astype(np.float64))
    per_step = (
        selected * logits.log_sigmoid()
        + (1.0 - selected) * (-logits).log_sigmoid()
    )
    return per_step.sum()


def _oracle_ppo_loss(model, insight, recipe_set, old_log_prob, advantage,
                     clip_epsilon):
    log_new = _oracle_log_prob(model, insight, recipe_set)
    ratio = (log_new - float(old_log_prob)).exp()
    low, high = 1.0 - clip_epsilon, 1.0 + clip_epsilon
    ratio_value = float(ratio.item())
    clipped_value = min(high, max(low, ratio_value))
    if ratio_value * advantage <= clipped_value * advantage:
        surrogate = ratio * advantage
    elif low <= ratio_value <= high:
        surrogate = ratio * advantage
    else:
        surrogate = Tensor(np.array(clipped_value * advantage))
    return -surrogate


def _oracle_update(cfg, model, insight, proposals, scores, observed, rng):
    """Margin-DPO + PPO loss, built sequence by sequence; returns the loss
    and the parameter gradients of one backward pass."""
    old_log_probs = [
        float(_oracle_log_prob(model, insight, bits).item())
        for bits in proposals
    ]
    losses = []
    count = min(cfg.dpo_pairs_per_update, len(observed) * 2)
    for _ in range(count):
        i, j = rng.integers(0, len(observed), size=2)
        (bits_i, score_i), (bits_j, score_j) = observed[int(i)], observed[int(j)]
        if abs(score_i - score_j) < 1e-6:
            continue
        if score_i < score_j:
            bits_i, bits_j = bits_j, bits_i
            score_i, score_j = score_j, score_i
        gap = (
            _oracle_log_prob(model, insight, bits_i)
            - _oracle_log_prob(model, insight, bits_j)
        )
        margin = cfg.lam * (score_i - score_j)
        losses.append((Tensor(np.array(margin)) - gap).clip_min(0.0))
    advantages = advantages_from_scores(scores)
    for bits, old_lp, adv in zip(proposals, old_log_probs, advantages):
        losses.append(
            _oracle_ppo_loss(model, insight, bits, old_lp, float(adv),
                             cfg.ppo_clip) * cfg.ppo_weight
        )
    total = losses[0]
    for item in losses[1:]:
        total = total + item
    loss = total / float(len(losses))
    model.zero_grad()
    loss.backward()
    return float(loss.item()), [p.grad.copy() for p in model.parameters()]


class _RecordingOptimizer:
    """Stands in for Adam: keeps the gradients ``step`` was given."""

    def __init__(self, params):
        self.params = list(params)
        self.grads = None

    def zero_grad(self):
        for param in self.params:
            param.zero_grad()

    def step(self):
        self.grads = [p.grad.copy() for p in self.params]


class TestBatchedOnlineUpdate:
    """``OnlineFineTuner._update`` against the per-sequence oracle."""

    def _fixture(self):
        rng = np.random.default_rng(11)
        a, b, c, d, e = _sets(rng, 5)
        # Duplicate rows (a and b twice), a tie (b vs d: skipped), and the
        # proposals repeat observed sets, so DPO and PPO rows overlap.
        observed = [(a, 1.0), (b, 0.4), (c, -0.7), (a, 1.0), (d, 0.4),
                    (b, 0.4), (e, 2.1)]
        proposals = [a, e, c, d]
        scores = [1.0, 2.1, -0.7, 0.4]
        insight = rng.normal(size=(INSIGHT_DIMS,))
        return insight, proposals, scores, observed

    def test_matches_per_sequence_oracle(self, monkeypatch):
        cfg = OnlineConfig(lam=2.0, ppo_weight=0.5, ppo_clip=0.2,
                           dpo_pairs_per_update=48, grad_clip=1e9)
        insight, proposals, scores, observed = self._fixture()

        # Preconditions: the draws hit duplicate rows, ties and both orders.
        draws = derive_rng(5, "oracle")
        count = min(cfg.dpo_pairs_per_update, len(observed) * 2)
        pairs = [tuple(draws.integers(0, len(observed), size=2))
                 for _ in range(count)]
        gaps = [observed[i][1] - observed[j][1] for i, j in pairs]
        assert any(g > 1e-6 for g in gaps) and any(g < -1e-6 for g in gaps)
        assert any(abs(g) < 1e-6 and observed[i][0] != observed[j][0]
                   for g, (i, j) in zip(gaps, pairs))

        oracle_model = InsightAlignModel(seed=3)
        oracle_rng = derive_rng(5, "oracle")
        oracle_loss, oracle_grads = _oracle_update(
            cfg, oracle_model, insight, proposals, scores, observed,
            oracle_rng,
        )

        losses = []
        backward = Tensor.backward

        def recording_backward(tensor, grad=None):
            if not losses:
                losses.append(float(tensor.item()))
            return backward(tensor, grad)

        monkeypatch.setattr(Tensor, "backward", recording_backward)
        model = InsightAlignModel(seed=3)
        optimizer = _RecordingOptimizer(model.parameters())
        rng = derive_rng(5, "oracle")
        OnlineFineTuner(cfg)._update(
            model, optimizer, insight, proposals, scores, observed, rng
        )
        monkeypatch.undo()

        assert losses[0] == pytest.approx(oracle_loss, rel=1e-12, abs=0.0)
        assert len(optimizer.grads) == len(oracle_grads)
        for got, want in zip(optimizer.grads, oracle_grads):
            # Zero-gradient parameters (the cross-attention query/key side:
            # a softmax over one memory token is constant) stay exactly 0.
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
