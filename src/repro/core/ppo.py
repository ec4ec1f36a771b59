"""PPO surrogate loss for the online fine-tuning phase.

The online loop (paper Section III.G) proposes K recipe sets per iteration,
observes their QoR, and updates with margin-DPO *and* a PPO clipped
surrogate.  Here a whole recipe set is one action; its advantage is the
centered QoR score of the batch; the importance ratio is the sequence-level
likelihood ratio against the pre-update (behaviour) policy:

    r(phi)  = exp(log pi_phi(R|I) - log pi_old(R|I))
    L_PPO   = -min(r * A, clip(r, 1-eps, 1+eps) * A)

:func:`ppo_surrogate` evaluates ``L_PPO`` for all K actions at once from
their :func:`repro.core.policy.sequence_log_probs` rows; the online update
takes those rows from the same batched forward as its margin-DPO pairs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.tensor import Tensor


def ppo_surrogate(
    log_new: Tensor,
    old_log_probs: Sequence[float],
    advantages: Sequence[float],
    clip_epsilon: float = 0.2,
) -> Tensor:
    """Clipped PPO surrogate loss ``L_PPO`` per action, shape ``(K,)``.

    Args:
        log_new: ``(K,)`` differentiable ``log pi_phi(R_k | I)``.
        old_log_probs: ``(K,)`` behaviour-policy log-likelihoods (values).
        advantages: ``(K,)`` advantages.
        clip_epsilon: Clip range ``eps``; must be positive.

    Each row picks its branch of ``min(r*A, clip(r)*A)`` by value: on the
    unclipped branch the gradient flows through the ratio (standard PPO);
    a row on the clipped branch is a constant and adds exactly zero
    gradient.
    """
    if clip_epsilon <= 0:
        raise ValueError(f"clip_epsilon must be positive, got {clip_epsilon}")
    advantages = np.asarray(advantages, dtype=np.float64)
    ratio = (log_new - np.asarray(old_log_probs, dtype=np.float64)).exp()
    low, high = 1.0 - clip_epsilon, 1.0 + clip_epsilon
    ratio_value = ratio.numpy()
    clipped_value = np.clip(ratio_value, low, high)
    # In-range rows have clipped == ratio, so they always keep the ratio.
    unclipped = ratio_value * advantages <= clipped_value * advantages
    surrogate = ratio * np.where(unclipped, advantages, 0.0) + np.where(
        unclipped, 0.0, clipped_value * advantages
    )
    return -surrogate


def advantages_from_scores(scores: Sequence[float]) -> np.ndarray:
    """Batch advantages: centered and scale-normalized QoR scores."""
    array = np.asarray(scores, dtype=np.float64)
    if array.size == 0:
        return array
    centered = array - array.mean()
    spread = centered.std()
    return centered / spread if spread > 1e-9 else centered
