"""Grad-free incremental inference engine for the InsightAlign model.

Training goes through the autograd :class:`~repro.nn.tensor.Tensor` graph;
serving does not need gradients, and it does not need the *full-sequence*
forward the training path performs.  Two structural facts about the Table
III architecture make an exact fast path possible:

1. **Single decoder layer** — position ``t``'s hidden state depends only on
   inputs at positions ``<= t``, and the inputs (token embedding + recipe
   positional code) for decided positions never change during decoding.
   Self-attention keys/values for old positions can therefore be cached and
   only position ``t`` computed per step (the classic KV cache), turning an
   O(n) forward per step into O(1).
2. **Fixed cross-attention memory** — the memory tokens never change during
   decoding, so their key/value projections are computed once per request.
   For the paper's single-token memory the softmax over one key is
   identically 1 whatever the query, and the whole cross-attention block
   constant-folds to ``out_proj(v_proj(insight_embed(insight)))``; for
   multi-token memories (the intention-conditioned model emits two tokens
   via :meth:`InsightAlignModel.memory_tokens`) the engine runs the real
   M-way attention per step — still O(M x dim) against cached projections.

The engine replays the exact op sequence of
:meth:`InsightAlignModel.batched_logits` (same layer-norm formula, same
max-shifted softmax, same masked-softmax semantics — masked positions
underflow to exactly 0 in the reference, which equals simply not attending
to them) on raw numpy arrays, so per-step logits agree with the reference
to float accumulation error (~1e-12; the serving equivalence tests bound
end-to-end sequence log-probs at 1e-9).

Weights are captured as *views* of the model's parameter arrays at
construction — an engine is cheap to build (no copies) and is rebuilt by
the service whenever the model registry hot-swaps.

Each KV cache is one buffer per decode, sized once to the frontier's
largest row count; the frontier itself is never padded to it, because
BLAS results for a row depend on the matmul's row count.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import InsightAlignModel


class DecodeState:
    """Per-frontier-row incremental state: self-attention KV + constants.

    Row ``i`` of the frontier is row ``i`` of each ``(capacity, n, dim)``
    KV buffer; ``gather`` rewrites the live positions ``< t`` in place.
    """

    def __init__(self, keys: np.ndarray, values: np.ndarray, rows: int,
                 cross: np.ndarray = None, cross_k: np.ndarray = None,
                 cross_v: np.ndarray = None) -> None:
        self._buffers = (keys, values)
        self.keys = keys[:rows]        # (B, n, dim), positions < t are live
        self.values = values[:rows]    # (B, n, dim)
        # Single-token memory: ``cross`` is the folded (B, dim) constant and
        # cross_k/cross_v are None.  Multi-token memory: ``cross`` is None
        # and cross_k/cross_v hold the (B, M, dim) projected memory.
        self.cross = cross
        self.cross_k = cross_k
        self.cross_v = cross_v
        self.t = 0

    def gather(self, parents) -> None:
        """Make row ``i`` continue row ``parents[i]``, in ``parents``' order."""
        parents = np.asarray(parents, dtype=np.intp)
        rows, t = len(parents), self.t
        keys, values = self._buffers
        if rows > keys.shape[0]:
            raise ValueError(f"{rows} rows exceed capacity {keys.shape[0]}")
        # Advanced indexing copies the parents' prefixes out before the
        # write, so no row is overwritten while it is still to be read.
        keys[:rows, :t] = self.keys[parents, :t]
        values[:rows, :t] = self.values[parents, :t]
        self.keys, self.values = keys[:rows], values[:rows]
        self.cross = None if self.cross is None else self.cross[parents]
        self.cross_k = None if self.cross_k is None else self.cross_k[parents]
        self.cross_v = None if self.cross_v is None else self.cross_v[parents]


class InferenceEngine:
    """Incremental, gradient-free decoding over a frozen model."""

    def __init__(self, model: InsightAlignModel) -> None:
        self.model = model
        self.n = model.n_recipes
        self.dim = model.dim
        self.scale = 1.0 / np.sqrt(model.dim)
        self.token_table = model.token_embed.weight.data
        self.positions = model._positions

        decoder = model.decoder
        attn = decoder.self_attn
        self.wq = attn.q_proj.weight.data
        self.wk = attn.k_proj.weight.data
        self.wv = attn.v_proj.weight.data
        self.wo = attn.out_proj.weight.data
        self.bo = attn.out_proj.bias.data
        cross = decoder.cross_attn
        self.cross_wq = cross.q_proj.weight.data
        self.cross_wk = cross.k_proj.weight.data
        self.cross_wv = cross.v_proj.weight.data
        self.cross_wo = cross.out_proj.weight.data
        self.cross_bo = cross.out_proj.bias.data
        self.ffn_wu = decoder.ffn.up.weight.data
        self.ffn_bu = decoder.ffn.up.bias.data
        self.ffn_wd = decoder.ffn.down.weight.data
        self.ffn_bd = decoder.ffn.down.bias.data
        self.norms = [
            (norm.gamma.data, norm.beta.data, norm.epsilon)
            for norm in (decoder.norm1, decoder.norm2, decoder.norm3)
        ]
        self.head_w = model.head.weight.data
        self.head_b = model.head.bias.data

    # ------------------------------------------------------------------
    @staticmethod
    def _layer_norm(x: np.ndarray, gamma, beta, epsilon) -> np.ndarray:
        # ``ndarray.mean``'s arithmetic without its Python wrapper.
        count = x.shape[-1]
        mean = np.add.reduce(x, axis=-1, keepdims=True) / count
        centered = x - mean
        variance = np.add.reduce(centered * centered, -1, keepdims=True) / count
        return (centered * ((variance + epsilon) ** -0.5)) * gamma + beta

    def cross_constants(self, insights: np.ndarray) -> np.ndarray:
        """The cross-attention block output, one constant per request.

        With a single memory token the attention weight is identically 1,
        so the block never reads its query; ``norm2`` and the q/k
        projections cancel out of the computation entirely.  Only valid for
        single-token-memory models.
        """
        cross = self.start(insights).cross
        if cross is None:
            raise ValueError("multi-token memory does not constant-fold")
        return cross

    def start(self, insights: np.ndarray, capacity: int = 0) -> DecodeState:
        """Fresh state with one frontier row per request; its KV buffers
        hold ``capacity`` rows, the most a later ``gather`` may produce."""
        insights = np.asarray(insights, dtype=np.float64)
        rows = insights.shape[0]
        shape = (max(rows, capacity), self.n, self.dim)
        keys, values = np.empty(shape), np.empty(shape)
        memory = self.model.memory_tokens(insights)
        if memory.shape[1] == 1:
            cross = (memory[:, 0] @ self.cross_wv) @ self.cross_wo + self.cross_bo
            return DecodeState(keys, values, rows, cross=cross)
        return DecodeState(keys, values, rows, cross_k=memory @ self.cross_wk,
                           cross_v=memory @ self.cross_wv)

    def step(self, state: DecodeState, tokens: np.ndarray) -> np.ndarray:
        """Advance every row one position; returns the step's logits.

        Args:
            state: KV cache (mutated in place: position ``t`` is filled and
                ``t`` advances).
            tokens: ``(B,)`` input token ids for this step — SOS at t=0,
                afterwards the decision taken at ``t-1``.

        Returns:
            ``(B,)`` pre-sigmoid selection logits for position ``t``.
        """
        t = state.t
        if t >= self.n:
            raise ValueError(f"decode already complete at t={t}")
        x = self.token_table[np.asarray(tokens, dtype=np.int64)] + self.positions[t]

        gamma, beta, epsilon = self.norms[0]
        normed = self._layer_norm(x, gamma, beta, epsilon)
        q = normed @ self.wq
        state.keys[:, t] = normed @ self.wk
        state.values[:, t] = normed @ self.wv
        keys = state.keys[:, : t + 1]
        scores = np.einsum("bd,btd->bt", q, keys) * self.scale
        shifted = scores - scores.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        weights = exp / exp.sum(axis=1, keepdims=True)
        attended = np.einsum("bt,btd->bd", weights, state.values[:, : t + 1])
        hidden = x + (attended @ self.wo + self.bo)

        if state.cross is not None:
            hidden = hidden + state.cross
        else:
            gamma, beta, epsilon = self.norms[1]
            normed = self._layer_norm(hidden, gamma, beta, epsilon)
            q = normed @ self.cross_wq
            scores = np.einsum("bd,bmd->bm", q, state.cross_k) * self.scale
            shifted = scores - scores.max(axis=1, keepdims=True)
            exp = np.exp(shifted)
            weights = exp / exp.sum(axis=1, keepdims=True)
            attended = np.einsum("bm,bmd->bd", weights, state.cross_v)
            hidden = hidden + (attended @ self.cross_wo + self.cross_bo)

        gamma, beta, epsilon = self.norms[2]
        normed = self._layer_norm(hidden, gamma, beta, epsilon)
        up = normed @ self.ffn_wu + self.ffn_bu
        hidden = hidden + ((up * (up > 0)) @ self.ffn_wd + self.ffn_bd)

        state.t = t + 1
        return (hidden @ self.head_w + self.head_b).ravel()


def step_log_probs(logits: np.ndarray):
    """(log P(select), log P(skip)) from a step's logits — the same
    clipped-sigmoid arithmetic as the reference decoder."""
    z = np.clip(logits, -60.0, 60.0)
    return -np.log1p(np.exp(-z)), -np.log1p(np.exp(z))


__all__ = ["DecodeState", "InferenceEngine", "step_log_probs"]
