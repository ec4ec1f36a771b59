"""Single-head attention and the transformer decoder layer (Table III).

The paper specifies a *single-head* transformer decoder layer whose cross
attention reads the design-insight embedding (a one-token memory) while
causal self-attention reads the recipe-decision prefix.  Pre-norm residual
wiring is used for training stability at this depth.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.layers import FeedForward, LayerNorm, Linear, Module
from repro.nn.tensor import Tensor


def causal_mask(length: int) -> np.ndarray:
    """Boolean mask, True above the diagonal (future positions)."""
    return np.triu(np.ones((length, length), dtype=bool), k=1)


class SingleHeadAttention(Module):
    """Scaled dot-product attention with one head.

    Args:
        dim: Model width (queries/keys/values all projected to ``dim``).
        seed: Weight-init seed.
    """

    def __init__(self, dim: int, seed: int = 0) -> None:
        super().__init__()
        self.dim = dim
        self.q_proj = self.add_child("q", Linear(dim, dim, seed=seed, bias=False))
        self.k_proj = self.add_child("k", Linear(dim, dim, seed=seed + 1, bias=False))
        self.v_proj = self.add_child("v", Linear(dim, dim, seed=seed + 2, bias=False))
        self.out_proj = self.add_child("out", Linear(dim, dim, seed=seed + 3))

    def __call__(
        self,
        query: Tensor,
        memory: Tensor,
        mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Attend ``query`` (L_q, dim) over ``memory`` (L_m, dim)."""
        q = self.q_proj(query)
        k = self.k_proj(memory)
        v = self.v_proj(memory)
        scores = (q @ k.transpose()) * (1.0 / np.sqrt(self.dim))
        if mask is not None:
            scores = scores.masked_fill(mask, -1e9)
        weights = scores.softmax(axis=-1)
        return self.out_proj(weights @ v)


class TransformerDecoderLayer(Module):
    """Pre-norm decoder layer: causal self-attn -> cross-attn -> FFN."""

    def __init__(self, dim: int, ffn_hidden: Optional[int] = None, seed: int = 0) -> None:
        super().__init__()
        hidden = ffn_hidden if ffn_hidden is not None else 4 * dim
        self.self_attn = self.add_child("self_attn", SingleHeadAttention(dim, seed=seed))
        self.cross_attn = self.add_child(
            "cross_attn", SingleHeadAttention(dim, seed=seed + 10)
        )
        self.ffn = self.add_child("ffn", FeedForward(dim, hidden, seed=seed + 20))
        self.norm1 = self.add_child("norm1", LayerNorm(dim))
        self.norm2 = self.add_child("norm2", LayerNorm(dim))
        self.norm3 = self.add_child("norm3", LayerNorm(dim))

    def __call__(self, x: Tensor, memory: Tensor) -> Tensor:
        """Decode ``x`` ((L, dim) or batched (B, L, dim)) over ``memory``."""
        length = x.shape[-2]
        # Self-attention reads one normalization twice; the key/value side is
        # its twin, so each side backpropagates through LN1 on its own.
        normed = self.norm1(x)
        x = x + self.self_attn(normed, normed.twin(), mask=causal_mask(length))
        x = x + self.cross_attn(self.norm2(x), memory)
        x = x + self.ffn(self.norm3(x))
        return x
