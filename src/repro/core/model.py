"""The InsightAlign model — paper Table III, reproduced exactly.

| Layer                 | Type                   | In        | Out      |
|-----------------------|------------------------|-----------|----------|
| Decision Token Embed. | Embedding              | (40, 3)   | (40, 32) |
| Recipe Pos. Enc.      | Positional Encoding    | (40, 32)  | (40, 32) |
| Insight Embed.        | Linear x1              | (1, 72)   | (1, 32)  |
| Transformer Dec.      | Transformer Decoder x1 | (1,32)+(40,32) | (40, 1) |
| Probabilistic         | Sigmoid x40            | (40, 1)   | (40, 1)  |

Recipes are tokens decided autoregressively: the input at step ``t`` is the
embedding of the *previous* decision (SOS at t=0) plus the position-t recipe
encoding; cross attention injects the design-insight embedding; a sigmoid
head yields P(select recipe_t | decisions_<t, insight).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ModelError
from repro.insights.schema import INSIGHT_DIMS
from repro.nn.attention import TransformerDecoderLayer
from repro.nn.layers import Embedding, Linear, Module, positional_encoding
from repro.nn.tensor import Tensor

SOS_TOKEN = 2  # vocabulary: 0 = not selected, 1 = selected, 2 = SOS


class InsightAlignModel(Module):
    """Decoder-only recipe-sequence model conditioned on design insights.

    Args:
        n_recipes: Sequence length (40 in the paper).
        dim: Model width (32 in the paper).
        insight_dims: Insight vector width (72 in the paper).
        seed: Weight-initialization seed.
    """

    def __init__(
        self,
        n_recipes: int = 40,
        dim: int = 32,
        insight_dims: int = INSIGHT_DIMS,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_recipes < 1:
            raise ModelError(f"n_recipes must be positive, got {n_recipes}")
        self.n_recipes = n_recipes
        self.dim = dim
        self.insight_dims = insight_dims
        self.token_embed = self.add_child(
            "token_embed", Embedding(3, dim, seed=seed)
        )
        self.insight_embed = self.add_child(
            "insight_embed", Linear(insight_dims, dim, seed=seed + 1)
        )
        self.decoder = self.add_child(
            "decoder", TransformerDecoderLayer(dim, seed=seed + 2)
        )
        self.head = self.add_child("head", Linear(dim, 1, seed=seed + 3))
        # Fixed sinusoidal positional code identifying each recipe slot.
        self._positions = positional_encoding(n_recipes, dim)

    # ------------------------------------------------------------------
    def logits(
        self,
        insight: np.ndarray,
        decisions: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Selection logits for each recipe step of one sequence.

        Args:
            insight: Insight vector, shape ``(insight_dims,)``.
            decisions: Teacher-forcing decisions in {0,1}, shape
                ``(n_recipes,)``; ``None`` is all zeros.  Logit ``t`` sees
                only decisions ``< t`` (causal mask), so incremental
                decoding may leave undecided entries at zero.

        Returns:
            Tensor of shape ``(n_recipes,)`` — pre-sigmoid logits, row 0
            of a width-1 :meth:`batched_logits` call.
        """
        insight = np.asarray(insight, dtype=np.float64)
        if insight.shape != (self.insight_dims,):
            raise ModelError(
                f"insight shape {insight.shape}, expected ({self.insight_dims},)"
            )
        if decisions is None:
            decisions = np.zeros(self.n_recipes, dtype=np.int64)
        decisions = np.asarray(decisions, dtype=np.int64)
        if decisions.shape != (self.n_recipes,):
            raise ModelError(
                f"decisions shape {decisions.shape}, expected ({self.n_recipes},)"
            )
        return self.batched_logits(
            insight.reshape(1, -1), decisions.reshape(1, -1)
        ).reshape(self.n_recipes)

    def batched_logits(
        self,
        insights: np.ndarray,
        decisions: np.ndarray,
    ) -> Tensor:
        """Batched teacher-forced logits — the model's one decoder forward.

        Args:
            insights: ``(B, insight_dims)`` — one insight vector per row.
            decisions: ``(B, n_recipes)`` binary decisions per row.

        Raises:
            ModelError: On a shape mismatch or a non-binary decision.

        Returns:
            Tensor ``(B, n_recipes)`` of pre-sigmoid logits; each row is
            computed independently of the others.
        """
        insights = np.asarray(insights, dtype=np.float64)
        decisions = np.asarray(decisions, dtype=np.int64)
        if insights.ndim != 2 or insights.shape[1] != self.insight_dims:
            raise ModelError(f"insights shape {insights.shape} invalid")
        if decisions.shape != (insights.shape[0], self.n_recipes):
            raise ModelError(f"decisions shape {decisions.shape} invalid")
        if np.any((decisions != 0) & (decisions != 1)):
            raise ModelError("decisions must be binary")
        batch = insights.shape[0]
        # Input token at step t is the decision at t-1; SOS at step 0.
        tokens = np.empty((batch, self.n_recipes), dtype=np.int64)
        tokens[:, 0] = SOS_TOKEN
        tokens[:, 1:] = decisions[:, :-1]
        x = self.token_embed(tokens) + Tensor(self._positions)
        hidden = self.decoder(x, self._memory(insights))
        return self.head(hidden).reshape(batch, self.n_recipes)

    def _memory(self, insights: np.ndarray) -> Tensor:
        """Cross-attention memory ``(B, M, dim)`` for validated insights.

        The base model conditions on a single insight-embedding token
        (``M = 1``); subclasses with richer conditioning (e.g. the
        intention-conditioned model) override this hook to emit more.
        """
        batch = insights.shape[0]
        return self.insight_embed(
            Tensor(insights.reshape(batch, 1, self.insight_dims))
        )

    def memory_tokens(self, insights: np.ndarray) -> np.ndarray:
        """Cross-attention memory, ``(B, M, dim)`` — one token block per row.

        Grad-free consumers (the serving inference engine) call this once
        per request instead of re-deriving the embedding wiring.
        """
        insights = np.asarray(insights, dtype=np.float64)
        if insights.ndim != 2 or insights.shape[1] != self.insight_dims:
            raise ModelError(f"insights shape {insights.shape} invalid")
        return self._memory(insights).numpy()

    def probabilities(
        self,
        insight: np.ndarray,
        decisions: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """P(select recipe_t | decisions_<t, insight) for every t."""
        return self.logits(insight, decisions).sigmoid().numpy()

    def architecture_summary(self) -> dict:
        """Layer/shape audit used by the Table III bench."""
        return {
            "decision_token_embedding": {
                "type": "Embedding",
                "input": (self.n_recipes, 3),
                "output": (self.n_recipes, self.dim),
            },
            "recipe_positional_encoding": {
                "type": "PositionalEncoding",
                "input": (self.n_recipes, self.dim),
                "output": (self.n_recipes, self.dim),
            },
            "insight_embedding": {
                "type": "Linear x1",
                "input": (1, self.insight_dims),
                "output": (1, self.dim),
            },
            "transformer_decoder": {
                "type": "TransformerDecoder x1 (single head)",
                "input": ((1, self.dim), (self.n_recipes, self.dim)),
                "output": (self.n_recipes, 1),
            },
            "probabilistic": {
                "type": f"Sigmoid x{self.n_recipes}",
                "input": (self.n_recipes, 1),
                "output": (self.n_recipes, 1),
            },
            "parameter_count": sum(p.size for p in self.parameters()),
        }
