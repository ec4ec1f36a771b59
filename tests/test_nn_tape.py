"""Tape memory tests: a graph keeps only what its backward reads.

Each op's node holds its tracked parents and a backward over the arrays
that backward reads, never a ``Tensor``; leaves that require grad are
their own tape entries.  So an intermediate no backward captured dies with
its last forward reference, a dropped model is freed by refcount alone, and
``backward`` frees each node's arrays once that node has run.

The lean step's nodes (the one-node LayerNorm, its self-attention twin, the
chunked weight gradient) must give the bits of the op-by-op graphs they
replace; the composed references below are the spec.
"""

import gc
import tracemalloc
import weakref

import numpy as np

import pytest

import repro.nn.tensor as tensor_module
from repro.core.alignment import AlignmentTrainer, _fused_pair_log_probs
from repro.core.model import InsightAlignModel
from repro.nn.attention import TransformerDecoderLayer, causal_mask
from repro.nn.layers import LayerNorm
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

    def test_192_pair_step_lean_memory(self):
        """One LayerNorm node, the shared self-attention norm, the freed
        tape and the chunked weight gradient: about 72 MiB after the
        forward and a 91 MiB peak (95 and 130 with the composed graph)."""
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
        assert after_forward <= 80 * MIB, after_forward / MIB
        assert peak <= 100 * MIB, peak / MIB


class TestProbeRecordsNoTape:
    """The end-of-epoch probe is never backpropagated, so its forward
    must record no tape node, and give the tracked forward's loss."""

    def test_eval_loss_builds_no_node(self, monkeypatch):
        model = InsightAlignModel(seed=0)
        batch = _pairs(model, 192)
        expected = float(_hinge_loss(model, *batch).item())
        built = []
        original = tensor_module._Node.__init__

        def counting(node, parents, backward):
            built.append(1)
            original(node, parents, backward)

        monkeypatch.setattr(tensor_module._Node, "__init__", counting)
        loss = AlignmentTrainer()._eval_loss(model, *batch)
        monkeypatch.undo()
        assert len(built) == 0
        assert loss.hex() == expected.hex()
        assert all(param.requires_grad for param in model.parameters())


def _composed_layer_norm(x, gamma, beta, epsilon=1e-5):
    """LayerNorm as five composed tape ops: the spec of the one-node op."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    variance = (centered * centered).mean(axis=-1, keepdims=True)
    normed = centered * ((variance + epsilon) ** -0.5)
    return normed * gamma + beta


def _node_layer_norm(x, gamma, beta, epsilon=1e-5):
    return x.layer_norm(gamma, beta, epsilon)


def _norm_graph(norm, source, gamma, beta, upstream):
    """``x`` is a tape node feeding residual adds before and after the norm."""
    x = source * 1.5
    before = x + 0.25
    out = norm(x, gamma, beta)
    after = x + out * 0.5
    loss = (before * after * upstream).sum()
    loss.backward()
    return out


def _norm_graph_grads(norm, shape, seed=0):
    rng = np.random.default_rng(seed)
    source = Tensor(rng.normal(size=shape) * 3.0 + 1.0, requires_grad=True)
    gamma = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
    beta = Tensor(rng.normal(size=shape[-1]), requires_grad=True)
    out = _norm_graph(norm, source, gamma, beta, rng.normal(size=shape))
    return out.data, source.grad, gamma.grad, beta.grad


def _bytes(arrays):
    return [array.tobytes() for array in arrays]


class TestLayerNormNode:
    @pytest.mark.parametrize("shape", [(40, 32), (1, 40, 32), (6, 1, 32), (6, 40, 32)])
    def test_bit_identical_to_composed_ops(self, shape):
        node = _norm_graph_grads(_node_layer_norm, shape)
        composed = _norm_graph_grads(_composed_layer_norm, shape)
        assert _bytes(node) == _bytes(composed)

    def test_untracked_input_gives_only_parameter_grads(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 40, 32))
        upstream = rng.normal(size=x.shape)
        grads = []
        for norm in (_node_layer_norm, _composed_layer_norm):
            gamma = Tensor(np.ones(32), requires_grad=True)
            beta = Tensor(np.zeros(32), requires_grad=True)
            norm(Tensor(x), gamma, beta).backward(upstream)
            grads.append(_bytes([gamma.grad, beta.grad]))
        assert grads[0] == grads[1]

    def test_keeps_one_input_sized_array(self):
        """``centered`` stays for the backward; the normalized value does not."""
        x = Tensor(np.random.default_rng(2).normal(size=(64, 40, 32)), requires_grad=True)
        norm = LayerNorm(32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = norm(x)
            held = tracemalloc.get_traced_memory()[0] - base - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert held < 1.5 * x.data.nbytes, held / x.data.nbytes


def _composed_decoder(layer, x, memory):
    """The decoder layer with each LayerNorm call a composed graph."""

    def norm(module, value):
        return _composed_layer_norm(value, module.gamma, module.beta, module.epsilon)

    length = x.shape[-2]
    x = x + layer.self_attn(
        norm(layer.norm1, x), norm(layer.norm1, x), mask=causal_mask(length)
    )
    x = x + layer.cross_attn(norm(layer.norm2, x), memory)
    return x + layer.ffn(norm(layer.norm3, x))


class TestSharedSelfAttentionNorm:
    def test_twin_matches_two_composed_norm1_calls(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(4, 40, 32))
        memory = Tensor(rng.normal(size=(4, 1, 32)))
        upstream = rng.normal(size=x0.shape)
        results = []
        for forward in (TransformerDecoderLayer.__call__, _composed_decoder):
            layer = TransformerDecoderLayer(32, seed=5)
            x = Tensor(x0, requires_grad=True)
            out = forward(layer, x, memory)
            out.backward(upstream)
            results.append(_bytes(
                [out.data, x.grad]
                + [param.grad for _, param in layer.named_parameters()]
            ))
        assert results[0] == results[1]

    def test_twin_shares_the_value_on_its_own_node(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = x.layer_norm(Tensor(np.ones(3)), Tensor(np.zeros(3)), 1e-5)
        twin = y.twin()
        assert twin.data is y.data
        assert twin._node is not y._node
        assert x.twin() is x


class TestChunkedWeightGradient:
    @pytest.mark.parametrize("rows", [65, 128, 384])
    def test_bit_identical_to_one_stacked_sum(self, rows):
        rng = np.random.default_rng(rows)
        a = rng.normal(size=(rows, 40, 32))
        weight = Tensor(rng.normal(size=(32, 128)), requires_grad=True)
        grad = rng.normal(size=(rows, 40, 128))
        (Tensor(a) @ weight).backward(grad)
        expected = (np.swapaxes(a, -1, -2) @ grad).sum(axis=0)
        assert weight.grad.tobytes() == expected.tobytes()


class TestBackwardReleasesTape:
    def test_captured_array_freed_by_backward(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        h = x * 3.0
        ref = weakref.ref(h.data)
        loss = (h * h).sum()
        del h
        assert ref() is not None  # the product's backward reads h
        loss.backward()
        assert ref() is None
        np.testing.assert_array_equal(x.grad, 18.0 * x.data)

    def test_second_backward_raises(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already freed"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_deep_chain_backpropagates(self):
        """The tape walk is iterative: depth is not bounded by recursion."""
        x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0
        (y * y).sum().backward()
        np.testing.assert_array_equal(x.grad, [4.0, -2.0])
