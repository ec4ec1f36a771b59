"""Model-level tests for the two-token intention-conditioned architecture."""

import numpy as np
import pytest

from repro.core.multi_intention import (
    IntentionConditionedModel,
    conditioned_insight,
)
from repro.core.qor import QoRIntention
from repro.errors import ModelError
from repro.insights.schema import INSIGHT_DIMS


@pytest.fixture(scope="module")
def model():
    return IntentionConditionedModel(seed=11)


@pytest.fixture(scope="module")
def packed():
    insight = np.random.default_rng(0).normal(size=(INSIGHT_DIMS,))
    return conditioned_insight(insight, QoRIntention())


class TestConditionedModel:
    def test_logit_shape(self, model, packed):
        logits = model.logits(packed)
        assert logits.shape == (40,)

    def test_batched_matches_single(self, model, packed):
        rng = np.random.default_rng(1)
        decisions = rng.integers(0, 2, size=(4, 40))
        insights = np.stack([packed + 0.01 * i for i in range(4)])
        batched = model.batched_logits(insights, decisions).numpy()
        for row in range(4):
            single = model.logits(insights[row], decisions[row]).numpy()
            np.testing.assert_allclose(single, batched[row], atol=1e-10)

    def test_intention_slots_matter(self, model):
        insight = np.random.default_rng(2).normal(size=(INSIGHT_DIMS,))
        power = conditioned_insight(
            insight, QoRIntention(metrics=(("power_mw", 1.0, False),))
        )
        tns = conditioned_insight(
            insight, QoRIntention(metrics=(("tns_ns", 1.0, False),))
        )
        a = model.logits(power).numpy()
        b = model.logits(tns).numpy()
        assert not np.allclose(a, b)

    def test_causality_preserved(self, model, packed):
        base = model.logits(packed, np.zeros(40, dtype=np.int64)).numpy()
        flipped = np.zeros(40, dtype=np.int64)
        flipped[15] = 1
        modified = model.logits(packed, flipped).numpy()
        np.testing.assert_allclose(base[:16], modified[:16], atol=1e-12)

    def test_gradients_reach_intent_embed(self, model, packed):
        model.zero_grad()
        logits = model.logits(packed)
        (logits * logits).sum().backward()
        assert model.intent_embed.weight.grad is not None
        assert np.abs(model.intent_embed.weight.grad).max() > 0

    def test_state_dict_roundtrip(self, model, packed):
        twin = IntentionConditionedModel(seed=99)
        twin.load_state_dict(model.state_dict())
        np.testing.assert_allclose(
            model.logits(packed).numpy(), twin.logits(packed).numpy(),
            atol=1e-12,
        )

    def test_two_memory_tokens(self, model, packed):
        memory = model._memory(packed.reshape(1, -1))
        assert memory.shape == (1, 2, model.dim)


class TestInputChecks:
    """The shared forward's typed checks cover the packed model too."""

    def test_non_binary_decisions_rejected(self, model, packed):
        with pytest.raises(ModelError):
            model.logits(packed, np.full(40, 2))

    def test_short_decisions_rejected(self, model, packed):
        with pytest.raises(ModelError):
            model.logits(packed, np.zeros(20, dtype=np.int64))

    def test_unpacked_batch_rejected(self, model):
        with pytest.raises(ModelError):
            model.batched_logits(
                np.zeros((3, INSIGHT_DIMS)), np.zeros((3, 40), dtype=np.int64)
            )
