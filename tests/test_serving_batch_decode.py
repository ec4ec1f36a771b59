"""Equivalence proof: the vectorized decoder vs. the per-beam reference.

The serving layer's correctness rests on ``batched_beam_search`` producing
exactly what ``beam_search_reference`` produces — same recipe sets, same
log-probs (to 1e-9), same canonical order — for every request in a batch,
including batches with heterogeneous beam widths.
"""

import numpy as np
import pytest

from repro.core.beam import (
    beam_search,
    beam_search_reference,
    greedy_decode,
    sample_decode,
)
from repro.core.model import InsightAlignModel
from repro.core.policy import sequence_log_prob_value
from repro.insights.schema import INSIGHT_DIMS
from repro.serving.batch_decode import (
    batched_beam_search,
    batched_greedy_decode,
    batched_sample_decode,
)
from repro.utils.rng import derive_rng


@pytest.fixture(scope="module")
def model():
    return InsightAlignModel(n_recipes=9, dim=16, seed=21)


@pytest.fixture(scope="module")
def insights():
    return np.random.default_rng(17).normal(size=(6, INSIGHT_DIMS))


def assert_matches_reference(model, insight, width, candidates):
    reference = beam_search_reference(model, insight, beam_width=width)
    assert len(candidates) == len(reference)
    for ref, (bits, log_prob) in zip(reference, candidates):
        assert ref.recipe_set == bits
        assert log_prob == pytest.approx(ref.log_prob, abs=1e-9)


class TestBatchedBeamEquivalence:
    def test_single_request(self, model, insights):
        [candidates] = batched_beam_search(model, insights[0], beam_widths=5)
        assert_matches_reference(model, insights[0], 5, candidates)

    def test_many_requests_shared_width(self, model, insights):
        results = batched_beam_search(model, insights, beam_widths=4)
        assert len(results) == len(insights)
        for insight, candidates in zip(insights, results):
            assert_matches_reference(model, insight, 4, candidates)

    def test_heterogeneous_widths(self, model, insights):
        widths = [1, 2, 5, 3, 8, 1]
        results = batched_beam_search(model, insights, beam_widths=widths)
        for insight, width, candidates in zip(insights, widths, results):
            assert_matches_reference(model, insight, width, candidates)

    def test_log_probs_match_policy(self, model, insights):
        """Scores are true sequence log-probs, not just internally consistent."""
        [candidates] = batched_beam_search(model, insights[1], beam_widths=4)
        for bits, log_prob in candidates:
            recomputed = sequence_log_prob_value(model, insights[1], bits)
            assert log_prob == pytest.approx(recomputed, abs=1e-9)

    def test_public_beam_search_routes_through_batched(self, model, insights):
        via_api = beam_search(model, insights[2], beam_width=6)
        reference = beam_search_reference(model, insights[2], beam_width=6)
        assert [c.recipe_set for c in via_api] == [
            c.recipe_set for c in reference
        ]
        for a, b in zip(via_api, reference):
            assert a.log_prob == pytest.approx(b.log_prob, abs=1e-9)

    def test_full_size_model(self, insights):
        model = InsightAlignModel(seed=0)
        [candidates] = batched_beam_search(model, insights[0], beam_widths=5)
        assert_matches_reference(model, insights[0], 5, candidates)

    def test_bad_widths_raise(self, model, insights):
        with pytest.raises(ValueError):
            batched_beam_search(model, insights, beam_widths=0)
        with pytest.raises(ValueError):
            batched_beam_search(model, insights, beam_widths=[2, 3])

    def test_empty_batch(self, model):
        assert batched_beam_search(
            model, np.zeros((0, INSIGHT_DIMS)), beam_widths=[]
        ) == []


class TestInferenceEngine:
    def test_stepwise_logits_match_full_forward(self, model, insights):
        """The KV-cached incremental step reproduces the training-path
        logits position by position on a teacher-forced trajectory."""
        from repro.core.model import SOS_TOKEN
        from repro.serving.engine import InferenceEngine

        decisions = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.int64)
        reference = model.logits(insights[0], decisions).numpy()

        engine = InferenceEngine(model)
        state = engine.start(insights[0].reshape(1, -1))
        token = np.array([SOS_TOKEN])
        for t in range(model.n_recipes):
            logit = engine.step(state, token)[0]
            assert logit == pytest.approx(reference[t], abs=1e-10)
            token = decisions[t : t + 1]

    def test_cross_attention_constant_folding(self, model, insights):
        """The single-token memory makes the cross block a per-request
        constant — verify against the layer's literal output."""
        from repro.nn.tensor import Tensor
        from repro.serving.engine import InferenceEngine

        engine = InferenceEngine(model)
        constant = engine.cross_constants(insights[:2])
        for r in range(2):
            memory = model.insight_embed(
                Tensor(insights[r].reshape(1, -1))
            )
            query = Tensor(np.random.default_rng(r).normal(
                size=(model.n_recipes, model.dim)
            ))
            literal = model.decoder.cross_attn(query, memory).numpy()
            # Constant across every query position.
            np.testing.assert_allclose(
                literal, np.broadcast_to(constant[r], literal.shape),
                atol=1e-12,
            )

    def test_step_past_end_raises(self, model, insights):
        from repro.core.model import SOS_TOKEN
        from repro.serving.engine import InferenceEngine

        engine = InferenceEngine(model)
        state = engine.start(insights[0].reshape(1, -1))
        token = np.array([SOS_TOKEN])
        for _ in range(model.n_recipes):
            engine.step(state, token)
            token = np.array([0])
        with pytest.raises(ValueError):
            engine.step(state, token)

    def test_new_weights_take_effect_immediately(self, insights):
        """Decoding builds its engine per call, so swapped-in weights are
        picked up with no explicit invalidation step."""
        from repro.serving.batch_decode import batched_beam_search

        model = InsightAlignModel(n_recipes=6, dim=8, seed=1)
        [before] = batched_beam_search(model, insights[0], beam_widths=3)
        donor = InsightAlignModel(n_recipes=6, dim=8, seed=2)
        model.load_state_dict(donor.state_dict())
        [after] = batched_beam_search(model, insights[0], beam_widths=3)
        [expected] = batched_beam_search(donor, insights[0], beam_widths=3)
        assert after == expected
        assert before != after


class TestMultiTokenMemory:
    """Models whose cross-attention memory has more than one token (the
    intention-conditioned extension) cannot use the constant fold — the
    engine must run the real M-way attention, still exactly."""

    @pytest.fixture(scope="class")
    def conditioned(self):
        from repro.core.multi_intention import (
            IntentionConditionedModel,
            conditioned_insight,
        )
        from repro.core.qor import QoRIntention

        model = IntentionConditionedModel(n_recipes=7, dim=16, seed=3)
        intention = QoRIntention(metrics=(("power_mw", 1.0, False),))
        packed = np.random.default_rng(9).normal(size=(3, INSIGHT_DIMS))
        return model, np.stack(
            [conditioned_insight(row, intention) for row in packed]
        )

    def test_memory_has_two_tokens(self, conditioned):
        model, packed = conditioned
        assert model.memory_tokens(packed).shape == (3, 2, model.dim)

    def test_batched_matches_reference(self, conditioned):
        model, packed = conditioned
        results = batched_beam_search(model, packed, beam_widths=4)
        for row, candidates in zip(packed, results):
            assert_matches_reference(model, row, 4, candidates)

    def test_cross_constant_fold_refuses(self, conditioned):
        from repro.serving.engine import InferenceEngine

        model, packed = conditioned
        with pytest.raises(ValueError):
            InferenceEngine(model).cross_constants(packed)


class TestCanonicalTieBreak:
    def test_ties_break_by_bits_descending(self, insights):
        """A zero-weight head makes every score exactly equal — ordering
        must then be the recipe-set bit vector, descending."""
        model = InsightAlignModel(n_recipes=4, dim=8, seed=5)
        state = model.state_dict()
        for name in state:
            if name.startswith("head."):
                state[name] = np.zeros_like(state[name])
        model.load_state_dict(state)
        reference = beam_search_reference(model, insights[0], beam_width=6)
        sets = [c.recipe_set for c in reference]
        assert sets == sorted(sets, reverse=True)
        [batched] = batched_beam_search(model, insights[0], beam_widths=6)
        assert [bits for bits, _ in batched] == sets


class TestBatchedGreedyAndSampling:
    def test_greedy_matches_reference(self, model, insights):
        batched = batched_greedy_decode(model, insights)
        for insight, (bits, log_prob) in zip(insights, batched):
            ref = beam_search_reference(model, insight, beam_width=1)[0]
            assert bits == ref.recipe_set
            assert log_prob == pytest.approx(ref.log_prob, abs=1e-9)

    def test_greedy_decode_routes_through_batched(self, model, insights):
        greedy = greedy_decode(model, insights[3])
        ref = beam_search_reference(model, insights[3], beam_width=1)[0]
        assert greedy.recipe_set == ref.recipe_set

    def test_sampling_reproducible_and_consistent(self, model, insights):
        a = sample_decode(model, insights[0], derive_rng(5, "s"))
        b = sample_decode(model, insights[0], derive_rng(5, "s"))
        assert a.recipe_set == b.recipe_set
        recomputed = sequence_log_prob_value(model, insights[0], a.recipe_set)
        assert a.log_prob == pytest.approx(recomputed, abs=1e-9)

    def test_batched_sampling_matches_single(self, model, insights):
        """Each request consumes its own rng stream exactly like the
        single-request path, so batching never perturbs seeded draws."""
        batched = batched_sample_decode(
            model,
            insights[:3],
            [derive_rng(i, "batch") for i in range(3)],
        )
        for i, (bits, log_prob) in enumerate(batched):
            single = sample_decode(model, insights[i], derive_rng(i, "batch"))
            assert bits == single.recipe_set
            assert log_prob == pytest.approx(single.log_prob, abs=1e-12)

    def test_sampling_rng_count_mismatch_raises(self, model, insights):
        with pytest.raises(ValueError):
            batched_sample_decode(model, insights, [derive_rng(0, "x")])


class TestDecodeArgumentChecks:
    """Malformed widths and temperatures are refused before decoding."""

    @pytest.mark.parametrize(
        "temperature", [float("nan"), float("inf"), 0.0, -1.0]
    )
    def test_sampling_refuses_bad_temperature(self, model, insights,
                                              temperature):
        with pytest.raises(ValueError, match="temperature"):
            sample_decode(model, insights[0], derive_rng(0, "t"),
                          temperature=temperature)
        with pytest.raises(ValueError, match="temperature"):
            batched_sample_decode(model, insights[:2],
                                  [derive_rng(i, "t") for i in range(2)],
                                  temperature=temperature)

    @pytest.mark.parametrize("width", [2.5, float("nan"), "2", 0, -1])
    def test_beam_search_refuses_non_integer_width(self, model, insights,
                                                   width):
        with pytest.raises(ValueError, match="beam width"):
            beam_search(model, insights[0], beam_width=width)
        with pytest.raises(ValueError, match="beam width"):
            batched_beam_search(model, insights[:2], beam_widths=[2, width])

    def test_integer_valued_width_accepted(self, model, insights):
        assert batched_beam_search(model, insights[:1], 2.0) == \
            batched_beam_search(model, insights[:1], 2)
