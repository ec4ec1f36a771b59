"""Beam search over recipe decisions — Algorithm 1's BEAMSEARCH.

Starting from the SOS-only prefix, each step extends every beam with both
decisions (select / skip), scores extensions by cumulative log probability
under the aligned policy, and keeps the top-K sequences.  After n steps the
K complete recipe sets best aligned with the QoR-optimized policy remain.

Ordering is canonical: extensions (and final candidates) sort by log-prob
descending with ties broken by the recipe-set bit vector descending, so the
top-K output is deterministic even under exactly equal scores.

Two implementations exist.  :func:`beam_search_reference` is the paper-
literal per-beam loop — one full-sequence ``model.logits`` forward per beam
per step — kept as the executable specification.  The public entry points
(:func:`beam_search`, :func:`greedy_decode`, :func:`sample_decode`) route
through :mod:`repro.serving.batch_decode`, which advances the whole frontier
in one ``batched_logits`` call per step; equivalence (same recipe sets, same
log-probs within 1e-9) is enforced by ``tests/test_serving_batch_decode.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.model import InsightAlignModel


@dataclass(frozen=True)
class BeamCandidate:
    """A complete recipe set with its cumulative log probability."""

    recipe_set: Tuple[int, ...]
    log_prob: float


def beam_search(
    model: InsightAlignModel,
    insight: np.ndarray,
    beam_width: int = 5,
) -> List[BeamCandidate]:
    """Top-``beam_width`` recipe sets for ``insight``, best first.

    Raises ``ValueError`` unless ``beam_width`` is an integer value >= 1.
    """
    # Imported lazily: repro.serving.batch_decode imports this module for
    # BeamCandidate, so a top-level import would be circular.
    from repro.serving.batch_decode import batched_beam_search

    [candidates] = batched_beam_search(model, insight, beam_widths=beam_width)
    return [
        BeamCandidate(recipe_set=bits, log_prob=log_prob)
        for bits, log_prob in candidates
    ]


def beam_search_reference(
    model: InsightAlignModel,
    insight: np.ndarray,
    beam_width: int = 5,
) -> List[BeamCandidate]:
    """The per-beam reference loop — the batched decoder's specification."""
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    n = model.n_recipes
    # Beams: (decisions-so-far, cumulative log prob).
    beams: List[Tuple[List[int], float]] = [([], 0.0)]
    for t in range(n):
        extensions: List[Tuple[List[int], float]] = []
        for prefix, score in beams:
            padded = np.zeros(n, dtype=np.int64)
            padded[: len(prefix)] = prefix
            logits = model.logits(insight, padded).numpy()
            z = float(np.clip(logits[t], -60.0, 60.0))
            log_p1 = -np.log1p(np.exp(-z))
            log_p0 = -np.log1p(np.exp(z))
            extensions.append((prefix + [1], score + log_p1))
            extensions.append((prefix + [0], score + log_p0))
        # Score descending; equal scores break by decision bits descending
        # (select-before-skip), making top-K deterministic under ties.
        extensions.sort(key=lambda item: (item[1], item[0]), reverse=True)
        beams = extensions[:beam_width]
    return [
        BeamCandidate(recipe_set=tuple(prefix), log_prob=score)
        for prefix, score in beams
    ]


def greedy_decode(model: InsightAlignModel, insight: np.ndarray) -> BeamCandidate:
    """Beam width 1 — the greedy ablation baseline."""
    return beam_search(model, insight, beam_width=1)[0]


def sample_decode(
    model: InsightAlignModel,
    insight: np.ndarray,
    rng: np.random.Generator,
    temperature: float = 1.0,
) -> BeamCandidate:
    """Ancestral sampling from the policy — the stochastic ablation."""
    from repro.serving.batch_decode import batched_sample_decode

    insight = np.asarray(insight, dtype=np.float64)
    [(bits, log_prob)] = batched_sample_decode(
        model, insight.reshape(1, -1), [rng], temperature=temperature
    )
    return BeamCandidate(recipe_set=bits, log_prob=log_prob)
