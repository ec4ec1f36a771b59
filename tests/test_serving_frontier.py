"""The vectorised beam frontier against the Python-loop frontier it replaced.

``batched_beam_search`` ranks each step's candidates with one ``np.lexsort``
and keeps the prefixes as int64 bit packs.  The loop below is the earlier
per-request frontier (``flatnonzero``, tuple candidates, ``list.sort``,
per-survivor prefix rows), kept as the oracle: over a seeded matrix the two
must return the same recipe sets with ``float.hex``-identical log-probs.
"""

import numpy as np
import pytest

from repro.core.beam import beam_search_reference
from repro.core.model import SOS_TOKEN, InsightAlignModel
from repro.core.multi_intention import IntentionConditionedModel
from repro.errors import ModelError
from repro.insights.schema import INSIGHT_DIMS
from repro.serving.batch_decode import MAX_RECIPES, batched_beam_search
from repro.serving.engine import InferenceEngine, step_log_probs


def loop_frontier(model, insights, widths):
    """The Python-loop frontier: one candidate list per request per step."""
    requests = insights.shape[0]
    n = model.n_recipes
    engine = InferenceEngine(model)
    state = engine.start(insights, capacity=sum(widths))
    owner = np.arange(requests, dtype=np.intp)
    tokens = np.full(requests, SOS_TOKEN, dtype=np.int64)
    prefixes = np.zeros((requests, n), dtype=np.int64)
    scores = np.zeros(requests, dtype=np.float64)
    packs = [0] * requests
    for t in range(n):
        logits = engine.step(state, tokens)
        log_p1, log_p0 = step_log_probs(logits)
        sel_scores = scores + log_p1
        skip_scores = scores + log_p0
        parents, new_owner, new_rows = [], [], []
        new_scores, new_packs, new_tokens = [], [], []
        for r in range(requests):
            candidates = []
            for b in np.flatnonzero(owner == r):
                pack = packs[b]
                candidates.append((sel_scores[b], pack << 1 | 1, b, 1))
                candidates.append((skip_scores[b], pack << 1, b, 0))
            candidates.sort(key=lambda c: (-c[0], -c[1]))
            for score, pack, b, bit in candidates[: widths[r]]:
                row = prefixes[b].copy()
                row[t] = bit
                parents.append(b)
                new_owner.append(r)
                new_rows.append(row)
                new_scores.append(float(score))
                new_packs.append(pack)
                new_tokens.append(bit)
        state.gather(parents)
        owner = np.asarray(new_owner, dtype=np.intp)
        prefixes = np.asarray(new_rows, dtype=np.int64)
        scores = np.asarray(new_scores, dtype=np.float64)
        packs = new_packs
        tokens = np.asarray(new_tokens, dtype=np.int64)
    results = [[] for _ in range(requests)]
    for b, r in enumerate(owner):
        results[r].append((tuple(int(x) for x in prefixes[b]), float(scores[b])))
    return results


def tie_model(n_recipes):
    """A zero-weight head: every step's scores tie exactly."""
    model = InsightAlignModel(n_recipes=n_recipes, dim=8, seed=5)
    state = model.state_dict()
    for name in state:
        if name.startswith("head."):
            state[name] = np.zeros_like(state[name])
    model.load_state_dict(state)
    return model


MODELS = {
    # n = 3 has 8 complete sets, so widths up to 12 exceed 2^n.
    "n3": lambda: InsightAlignModel(n_recipes=3, dim=16, seed=3),
    "n4": lambda: InsightAlignModel(n_recipes=4, dim=16, seed=4),
    "n9": lambda: InsightAlignModel(n_recipes=9, dim=16, seed=9),
    "n40": lambda: InsightAlignModel(seed=0),
    "ties": lambda: tie_model(4),
    "conditioned": lambda: IntentionConditionedModel(n_recipes=7, dim=16, seed=3),
}


def hexed(results):
    return [[(bits, log_prob.hex()) for bits, log_prob in c] for c in results]


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_lexsort_frontier_matches_loop_frontier(name, case):
    model = MODELS[name]()
    rng = np.random.default_rng([case, len(name)])
    requests = int(rng.integers(1, 9))
    widths = [int(w) for w in rng.integers(1, 13, size=requests)]
    widths[case % requests] = 12 if case % 2 else 1
    insights = rng.normal(size=(requests, model.insight_dims))
    got = batched_beam_search(model, insights, widths)
    want = loop_frontier(model, insights, widths)
    assert hexed(got) == hexed(want)
    for width, candidates in zip(widths, got):
        assert len(candidates) == min(width, 2 ** model.n_recipes)


def test_packs_limit():
    insight = np.random.default_rng(0).normal(size=INSIGHT_DIMS)
    too_long = InsightAlignModel(n_recipes=MAX_RECIPES + 1, dim=8, seed=1)
    with pytest.raises(ModelError):
        batched_beam_search(too_long, insight, beam_widths=2)
    longest = InsightAlignModel(n_recipes=MAX_RECIPES, dim=8, seed=1)
    [candidates] = batched_beam_search(longest, insight, beam_widths=3)
    reference = beam_search_reference(longest, insight, beam_width=3)
    assert [bits for bits, _ in candidates] == [c.recipe_set for c in reference]
    for (_, log_prob), ref in zip(candidates, reference):
        assert log_prob == pytest.approx(ref.log_prob, abs=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_insights_raise(bad):
    model = InsightAlignModel(n_recipes=4, dim=8, seed=0)
    insights = np.random.default_rng(0).normal(size=(2, INSIGHT_DIMS))
    insights[1, 5] = bad
    with pytest.raises(ModelError):
        batched_beam_search(model, insights, beam_widths=2)


def test_gather_keeps_every_row_on_its_own_prefix():
    """Across real ``gather`` calls — duplicated, dropped, reordered rows,
    growing and shrinking frontiers — each row's step logit is the
    training forward's logit for that row's teacher-forced prefix.  A
    reused buffer that overwrote a row still to be read would break it."""
    model = InsightAlignModel(n_recipes=9, dim=16, seed=21)
    n = model.n_recipes
    rng = np.random.default_rng(7)
    insights = rng.normal(size=(3, INSIGHT_DIMS))
    capacity = 10
    engine = InferenceEngine(model)
    state = engine.start(insights, capacity=capacity)
    owner = np.arange(3)
    prefixes = [[] for _ in range(3)]
    tokens = np.full(3, SOS_TOKEN, dtype=np.int64)
    for t in range(n):
        logits = engine.step(state, tokens)
        for row, (r, prefix) in enumerate(zip(owner, prefixes)):
            decisions = np.zeros(n, dtype=np.int64)
            decisions[:t] = prefix
            expected = model.logits(insights[r], decisions).numpy()[t]
            assert logits[row] == pytest.approx(expected, abs=1e-10)
        parents = rng.integers(0, len(owner), size=int(rng.integers(1, capacity + 1)))
        bits = rng.integers(0, 2, size=len(parents))
        state.gather(parents)
        owner = owner[parents]
        prefixes = [prefixes[p] + [int(b)] for p, b in zip(parents, bits)]
        tokens = bits.astype(np.int64)


def test_gather_beyond_capacity_raises():
    model = InsightAlignModel(n_recipes=4, dim=8, seed=0)
    engine = InferenceEngine(model)
    state = engine.start(np.zeros((2, INSIGHT_DIMS)), capacity=3)
    engine.step(state, np.full(2, SOS_TOKEN, dtype=np.int64))
    with pytest.raises(ValueError):
        state.gather([0, 0, 1, 1])
