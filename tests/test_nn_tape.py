"""Tape memory tests: a graph keeps only what its backward reads.

Each op's node holds its tracked parents and backward closures over the
arrays those closures read, never a ``Tensor``; leaves that require grad are
their own tape entries.  So an intermediate no closure captured dies with
its last forward reference, and a dropped model is freed by refcount alone.
"""

import gc
import tracemalloc
import weakref

import numpy as np

from repro.core.alignment import _fused_pair_log_probs
from repro.core.model import InsightAlignModel
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor

MIB = 2 ** 20


def _hinge_loss(model, insights, winners, losers, margins):
    logp_w, logp_l = _fused_pair_log_probs(model, insights, winners, losers)
    return (Tensor(margins) - (logp_w - logp_l)).clip_min(0.0).mean()


def _pairs(model, pairs, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.normal(size=(pairs, model.insight_dims)),
        rng.integers(0, 2, size=(pairs, model.n_recipes)),
        rng.integers(0, 2, size=(pairs, model.n_recipes)),
        rng.uniform(0.0, 2.0, size=pairs),
    )


class TestTapeHoldsNoValues:
    def test_uncaptured_intermediate_freed_while_graph_lives(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = x * 2.0
        ref = weakref.ref(h.data)
        y = (h + 1.0).sum()
        del h
        assert ref() is None  # only add and sum read h; neither keeps it
        y.backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_untracked_ops_record_nothing(self):
        a = Tensor(np.ones(3))
        assert (a * 2.0 + a).sum()._entry() is None
        leaf = Tensor(np.ones(3), requires_grad=True)
        assert leaf._entry() is leaf

    def test_dropped_model_freed_by_refcount(self):
        """No cycle through the tape: model, optimizer and loss go without GC."""
        gc.collect()
        gc.disable()
        try:
            model = InsightAlignModel(seed=0)
            optimizer = Adam(model.parameters(), lr=1e-3)
            loss = _hinge_loss(model, *_pairs(model, 4))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            param = model.decoder.self_attn.q_proj.weight
            ref = weakref.ref(param.data)
            del model, optimizer, loss, param
            assert ref() is None
        finally:
            gc.enable()


class TestAlignmentStepMemory:
    def test_192_pair_step_memory(self):
        """A 384-row step keeps about 95 MiB after its forward (the full
        graph of every intermediate was about 210 MiB) and peaks near
        130 MiB through backward (was about 245 MiB)."""
        model = InsightAlignModel(seed=0)
        batch = _pairs(model, 192)
        tracemalloc.start()
        try:
            loss = _hinge_loss(model, *batch)
            after_forward = tracemalloc.get_traced_memory()[0]
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert after_forward <= 110 * MIB, after_forward / MIB
        assert peak <= 160 * MIB, peak / MIB
