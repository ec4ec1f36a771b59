"""Vectorized decoding: all beams of all in-flight requests in one forward.

The reference ``beam_search`` (:mod:`repro.core.beam`) issues one
full-sequence :meth:`~repro.core.model.InsightAlignModel.logits` call *per
beam per step* — ~K x n unbatched autograd forwards per request, fully
sequentially.  This module advances the whole serving batch at once through
the grad-free :class:`~repro.serving.engine.InferenceEngine`: every beam of
every request is one row of an incremental KV-cached frontier, and each
step is a single batched O(dim^2)-per-row update instead of a full-sequence
tensor-graph forward.

Selection is one ``np.lexsort`` per step over int64 prefix packs (hence
:data:`MAX_RECIPES`); the frontier stays request-major, then by rank.

Equivalence: for each request the returned candidates are the same recipe
sets with the same cumulative log probabilities (within floating-point
accumulation noise, < 1e-9) as the reference per-beam loop, in the same
canonical order — score descending, log-prob ties broken by the recipe-set
bit vector descending.  ``tests/test_serving_batch_decode.py`` proves this
against :func:`repro.core.beam.beam_search_reference` on seeded models.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Union

import numpy as np

from repro.core.model import InsightAlignModel, SOS_TOKEN
from repro.errors import ModelError
from repro.serving.engine import InferenceEngine, step_log_probs


# One int64 pack bit per recipe; the packs and their negations stay in range.
MAX_RECIPES = 62


def as_count(value, name: str) -> int:
    """``value`` as an ``int`` >= 1; ``ValueError`` unless it is an
    integer value (``2.0`` passes, ``2.5``, ``nan`` and ``"2"`` do not)."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {value!r}")
    return count


def _as_insight_matrix(model: InsightAlignModel, insights) -> np.ndarray:
    insights = np.asarray(insights, dtype=np.float64)
    if insights.ndim == 1:
        insights = insights.reshape(1, -1)
    if (insights.ndim != 2 or insights.shape[1] != model.insight_dims
            or not np.isfinite(insights).all()):
        raise ModelError(f"insights of shape {insights.shape}, expected finite "
                         f"values of shape (R, {model.insight_dims})")
    return insights


def batched_beam_search(
    model: InsightAlignModel,
    insights,
    beam_widths: Union[int, Sequence[int]],
) -> List[List[tuple]]:
    """Beam search for many requests with one fused frontier step per t.

    Args:
        model: The aligned policy (at most :data:`MAX_RECIPES` recipes).
        insights: ``(R, insight_dims)`` — one insight vector per request
            (a single 1-D vector is treated as ``R = 1``).
        beam_widths: Beam width per request — a scalar applied to all
            requests, or one width per row.

    Returns:
        One list per request of ``(recipe_set, log_prob)`` pairs, best
        first, ``beam_widths[r]`` entries each.  Ordering is canonical:
        log-prob descending, ties broken by recipe-set bits descending.
    """
    insights = _as_insight_matrix(model, insights)
    requests = insights.shape[0]
    if np.isscalar(beam_widths):
        widths = [as_count(beam_widths, "beam width")] * requests
    else:
        widths = [as_count(w, "beam width") for w in beam_widths]
    if len(widths) != requests:
        raise ValueError(f"{len(widths)} beam widths for {requests} requests")
    n = model.n_recipes
    if n > MAX_RECIPES:
        raise ModelError(f"beam search packs at most {MAX_RECIPES} recipes, got {n}")
    if requests == 0:
        return []

    engine = InferenceEngine(model)
    state = engine.start(insights, capacity=sum(min(w, 1 << n) for w in widths))
    limits = np.asarray(widths, dtype=np.intp)
    # Row b is one beam of request ``owner[b]``; ``packs[b]`` holds its
    # prefix bits big-endian, so descending packs are descending bit order.
    owner = np.arange(requests, dtype=np.intp)
    scores = np.zeros(requests)
    packs = np.zeros(requests, dtype=np.int64)
    tokens = np.full(requests, SOS_TOKEN, dtype=np.int64)
    for _ in range(n):
        log_p1, log_p0 = step_log_probs(engine.step(state, tokens))
        # Candidate b selects this step's recipe on beam b; rows + b skips it.
        cand_owner = np.concatenate((owner, owner))
        cand_scores = np.concatenate((scores + log_p1, scores + log_p0))
        cand_packs = np.concatenate((packs << 1 | 1, packs << 1))
        # Packs are distinct within a request, so no two candidates tie.
        order = np.lexsort((-cand_packs, -cand_scores, cand_owner))
        ranked = cand_owner[order]
        rank = np.arange(len(order)) - np.searchsorted(ranked, ranked)
        keep = order[rank < limits[ranked]]
        state.gather(keep % len(owner))
        owner, scores, packs = cand_owner[keep], cand_scores[keep], cand_packs[keep]
        # The input token at step t+1 is the decision taken at step t.
        tokens = packs & 1

    bits = (packs[:, None] >> np.arange(n - 1, -1, -1)) & 1
    results: List[List[tuple]] = [[] for _ in range(requests)]
    for r, row, score in zip(owner.tolist(), bits.tolist(), scores.tolist()):
        results[r].append((tuple(row), score))
    return results


def batched_greedy_decode(model: InsightAlignModel, insights) -> List[tuple]:
    """Width-1 decode for every request — one candidate per row."""
    return [
        candidates[0]
        for candidates in batched_beam_search(model, insights, beam_widths=1)
    ]


def batched_sample_decode(
    model: InsightAlignModel,
    insights,
    rngs: Sequence[np.random.Generator],
    temperature: float = 1.0,
) -> List[tuple]:
    """Ancestral sampling for many requests, one fused step per position.

    Each request consumes exactly one ``rng.random()`` draw per step from
    its own generator — the same consumption pattern as the reference
    single-request sampler, so seeded draws reproduce bit-identically.
    """
    if not (math.isfinite(temperature) and temperature > 0):
        raise ValueError(
            f"temperature must be finite and positive, got {temperature}"
        )
    insights = _as_insight_matrix(model, insights)
    requests = insights.shape[0]
    if len(rngs) != requests:
        raise ValueError(f"{len(rngs)} generators for {requests} requests")
    if requests == 0:
        return []

    n = model.n_recipes
    engine = InferenceEngine(model)
    state = engine.start(insights)
    tokens = np.full(requests, SOS_TOKEN, dtype=np.int64)
    decisions = np.zeros((requests, n), dtype=np.int64)
    totals = np.zeros(requests, dtype=np.float64)
    for t in range(n):
        logits = engine.step(state, tokens)
        z = np.clip(logits / temperature, -60.0, 60.0)
        p_one = 1.0 / (1.0 + np.exp(-z))
        for r in range(requests):
            choice = 1 if rngs[r].random() < p_one[r] else 0
            decisions[r, t] = choice
            totals[r] += np.log(p_one[r] if choice == 1 else 1.0 - p_one[r])
        tokens = decisions[:, t]
    return [
        (tuple(int(x) for x in decisions[r]), float(totals[r]))
        for r in range(requests)
    ]
