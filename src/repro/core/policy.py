"""Sequence likelihoods via teacher forcing — the paper's eq. (3).

    log pi_phi(R | I) = sum_t log P(r_t | r_<t, I; phi)

One decoder forward pass under teacher forcing yields every conditional in
parallel (Fig. 4): position ``t`` of the causally-masked decoder sees
exactly ``r_<t`` (the inputs are the shifted decisions), so

    log P(r_t | ...) = r_t * logsigmoid(z_t) + (1 - r_t) * logsigmoid(-z_t).

:func:`sequence_log_probs` is the one implementation: a single
``batched_logits`` forward over any number of (insight, recipe set) rows.
Every preference trainer — offline alignment, the online margin-DPO + PPO
update and multi-intention training — calls it; the single-sequence
helpers below are width-1 views of it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import InsightAlignModel
from repro.nn.tensor import Tensor


def _step_log_probs(
    model: InsightAlignModel, insights: np.ndarray, decisions: np.ndarray
) -> Tensor:
    """Per-step ``log P(r_t | r_<t, I)`` terms, shape ``(B, n)``."""
    decisions = np.asarray(decisions, dtype=np.int64)
    logits = model.batched_logits(insights, decisions)
    selected = Tensor(decisions.astype(np.float64))
    return (
        selected * logits.log_sigmoid()
        + (1.0 - selected) * (-logits).log_sigmoid()
    )


def sequence_log_probs(
    model: InsightAlignModel, insights: np.ndarray, decisions: np.ndarray
) -> Tensor:
    """Row-wise differentiable ``log pi(R | I)``, shape ``(B,)``.

    Args:
        model: The policy.
        insights: ``(B, insight_dims)`` conditioning rows.
        decisions: ``(B, n_recipes)`` binary recipe sets.
    """
    return _step_log_probs(model, insights, decisions).sum(axis=-1)


def _single(insight, recipe_set):
    """One (insight, recipe set) as width-1 batch arrays."""
    insight = np.asarray(insight, dtype=np.float64)
    decisions = np.asarray(recipe_set, dtype=np.int64)
    return insight.reshape(1, -1), decisions.reshape(1, -1)


def sequence_log_prob(
    model: InsightAlignModel,
    insight: np.ndarray,
    recipe_set: Sequence[int],
) -> Tensor:
    """Differentiable ``log pi(R | I)`` (autograd Tensor, scalar)."""
    return sequence_log_probs(model, *_single(insight, recipe_set)).reshape()


def sequence_log_prob_value(
    model: InsightAlignModel,
    insight: np.ndarray,
    recipe_set: Sequence[int],
) -> float:
    """Non-differentiable convenience wrapper (plain float)."""
    return float(sequence_log_prob(model, insight, recipe_set).item())


def step_log_probs(
    model: InsightAlignModel,
    insight: np.ndarray,
    recipe_set: Sequence[int],
) -> np.ndarray:
    """Per-step ``log P(r_t | r_<t, I)`` values, shape ``(n,)``."""
    return _step_log_probs(model, *_single(insight, recipe_set)).numpy()[0]
