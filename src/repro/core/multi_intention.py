"""Intention-conditioned recommendation — an extension beyond the paper.

The paper trains one model per QoR intention and notes (conclusion) that
online fine-tuning serves "different user intentions on top of the offline
stage".  This module goes one step further: a *single* policy conditioned
on the intention itself.  The conditioning vector appends the normalized
metric weights (signed by optimization direction) to the 72-d insight
vector, and training draws preference pairs under every intention in the
training set — so at inference time the same weights serve any interpolated
intention without retraining.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.alignment import AlignmentConfig, AlignmentTrainer
from repro.core.beam import BeamCandidate, beam_search
from repro.core.dataset import OfflineDataset
from repro.core.model import InsightAlignModel
from repro.core.qor import QoRIntention
from repro.errors import TrainingError
from repro.insights.schema import INSIGHT_DIMS
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.utils.rng import derive_rng

# The conditioning slots appended to the insight vector; a metric absent
# from an intention contributes weight 0.
CONDITIONED_METRICS: Tuple[str, ...] = ("power_mw", "tns_ns", "drc_count")


# Gain applied to the conditioning slots: the code is 3 of 75 insight dims,
# so it is amplified to compete with the 72 insight dims for the single
# cross-attention memory token's bandwidth.
_CODE_GAIN = 3.0


def intention_code(intention: QoRIntention) -> np.ndarray:
    """Signed, normalized (then amplified) weights for the conditioning slots."""
    weights = {name: 0.0 for name in CONDITIONED_METRICS}
    for name, weight, maximize in intention.metrics:
        if name not in weights:
            raise TrainingError(
                f"metric {name!r} not conditionable; supported: "
                f"{CONDITIONED_METRICS}"
            )
        weights[name] = weight * (1.0 if maximize else -1.0)
    code = np.array([weights[name] for name in CONDITIONED_METRICS])
    norm = np.abs(code).sum()
    return (code / norm if norm > 0 else code) * _CODE_GAIN


def conditioned_insight(
    insight: np.ndarray, intention: QoRIntention
) -> np.ndarray:
    """Insight vector with the intention code appended."""
    return np.concatenate([np.asarray(insight), intention_code(intention)])


class IntentionConditionedModel(InsightAlignModel):
    """InsightAlign model with a second memory token for the intention.

    With a single memory token, cross attention contributes the *same*
    vector at every sequence position (softmax over one key), so opposing
    per-recipe preferences under different intentions are hard to express.
    A second token dedicated to the intention code gives each position its
    own attention split between "what the design looks like" and "what the
    user wants" — enough to flip individual recipe preferences with the
    intention.

    The public interface is unchanged: ``insight`` is the concatenated
    ``[72-d insight || intention code]`` vector, split internally by the
    :meth:`_memory` hook — the only override; the forward and its input
    checks are the base model's.
    """

    def __init__(self, n_recipes: int = 40, dim: int = 32, seed: int = 0):
        super().__init__(
            n_recipes=n_recipes,
            dim=dim,
            insight_dims=INSIGHT_DIMS + len(CONDITIONED_METRICS),
            seed=seed,
        )
        from repro.nn.layers import Linear

        self.intent_embed = self.add_child(
            "intent_embed", Linear(len(CONDITIONED_METRICS), dim, seed=seed + 7)
        )
        # Re-bind the base insight embed to the raw insight width.
        self.insight_embed = self.add_child(
            "insight_embed", Linear(INSIGHT_DIMS, dim, seed=seed + 1)
        )

    def _memory(self, packed: np.ndarray) -> Tensor:
        """Two memory tokens per row, ``(B, 2, dim)``: insight and intent."""
        base = Tensor(packed[..., :INSIGHT_DIMS])
        code = Tensor(packed[..., INSIGHT_DIMS:])
        insight_token = self.insight_embed(base)
        intent_token = self.intent_embed(code)
        return Tensor.stack([insight_token, intent_token], axis=-2)


@dataclass
class MultiIntentionRecommender:
    """One policy serving many QoR intentions."""

    model: InsightAlignModel
    intentions: List[QoRIntention] = field(default_factory=list)

    @classmethod
    def train(
        cls,
        dataset: OfflineDataset,
        intentions: Sequence[QoRIntention],
        config: AlignmentConfig = AlignmentConfig(),
        verbose: bool = False,
    ) -> "MultiIntentionRecommender":
        """Margin-DPO over pairs drawn under every training intention."""
        if not intentions:
            raise TrainingError("need at least one intention")
        if len(dataset) == 0:
            raise TrainingError("cannot train on an empty dataset")
        model = IntentionConditionedModel(seed=config.seed)
        optimizer = Adam(model.parameters(), lr=config.learning_rate)
        rng = derive_rng(config.seed, "multi-intention")

        # One (conditioned insight, recipes, scores) context per
        # (intention, design); alignment's sampler draws the pairs of each.
        contexts = {}
        for index, intention in enumerate(intentions):
            for design in dataset.designs():
                contexts[(index, design)] = (
                    conditioned_insight(dataset.insight_for(design), intention),
                    np.array([p.recipe_set for p in dataset.by_design(design)],
                             dtype=np.int64),
                    dataset.scores_for(design, intention),
                )
        # DPO's uniform-reference objective only constrains likelihood
        # *ratios*; a small behaviour-cloning anchor on the winners pins
        # the absolute distribution near winning recipe sets so beam
        # decoding emits realistic densities (standard DPO+SFT mixing).
        trainer = AlignmentTrainer(replace(
            config,
            pairs_per_design=max(8, config.pairs_per_design // len(intentions)),
            bc_anchor_weight=0.10,
        ))
        for epoch in range(config.epochs):
            epoch_losses = [
                trainer._step(model, optimizer, *batch)[0]
                for batch in trainer._epoch_batches(contexts, rng)
            ]
            if verbose:
                print(f"epoch {epoch}: loss {np.mean(epoch_losses):.4f}")
        return cls(model=model, intentions=list(intentions))

    # ------------------------------------------------------------------
    def recommend(
        self,
        insight: np.ndarray,
        intention: QoRIntention,
        k: int = 5,
    ) -> List[BeamCandidate]:
        """Top-K recipe sets for (design insight, intention)."""
        return beam_search(
            self.model, conditioned_insight(insight, intention), beam_width=k
        )
