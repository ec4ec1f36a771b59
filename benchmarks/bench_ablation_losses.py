"""Ablation — margin-based DPO vs. plain DPO vs. supervised imitation.

The paper motivates margin-based DPO (eq. 2) over plain DPO (eq. 1) because
it scales preference pressure with QoR-gap magnitude, and over conventional
supervised learning because ranking generalizes where "memorizing
high-performing configurations" does not (Section I).  This bench trains
all three objectives on the same 8-design subset and compares zero-shot
pairwise ranking accuracy and Win% on two held-out designs.

Expected shape: margin-DPO >= plain DPO > supervised imitation on held-out
ranking accuracy.
"""

import numpy as np

from repro.core.alignment import AlignmentConfig, AlignmentTrainer
from repro.core.crossval import evaluate_design
from repro.core.model import InsightAlignModel
from repro.core.policy import sequence_log_prob_value, sequence_log_probs
from repro.nn.optim import Adam, clip_grad_norm
from repro.utils.rng import derive_rng

from common import get_dataset, run_once

TRAIN_DESIGNS = ["D1", "D3", "D5", "D6", "D8", "D10", "D12", "D16"]
HELDOUT = ["D4", "D14"]
EPOCHS = 10
PAIRS = 140
SEED = 0


def _train_margin_dpo(train_set, lam):
    config = AlignmentConfig(
        lam=lam, epochs=EPOCHS, pairs_per_design=PAIRS, seed=SEED
    )
    model, _ = AlignmentTrainer(config).train(train_set)
    return model


def _train_supervised(train_set):
    """Imitation: maximize likelihood of each design's top-20% recipe sets."""
    model = InsightAlignModel(seed=SEED)
    optimizer = Adam(model.parameters(), lr=3e-3)
    rng = derive_rng(SEED, "bce")
    per_design = []
    for design in train_set.designs():
        scores = train_set.scores_for(design)
        points = train_set.by_design(design)
        cut = np.quantile(scores, 0.8)
        winners = [
            np.array(p.recipe_set) for p, s in zip(points, scores) if s >= cut
        ]
        per_design.append((train_set.insight_for(design), winners))
    for _ in range(EPOCHS):
        batch_insights, batch_sets = [], []
        for insight, winners in per_design:
            for index in rng.choice(len(winners), size=min(24, len(winners)),
                                    replace=False):
                batch_insights.append(insight)
                batch_sets.append(winners[int(index)])
        order = rng.permutation(len(batch_sets))
        for start in range(0, len(order), 192):
            sel = order[start:start + 192]
            insights = np.stack([batch_insights[i] for i in sel])
            decisions = np.stack([batch_sets[i] for i in sel])
            loss = -sequence_log_probs(model, insights, decisions).mean()
            optimizer.zero_grad()
            loss.backward()
            clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()
    return model


def _ranking_accuracy(model, dataset, design, n_pairs=400):
    """Fraction of QoR-ordered pairs the policy's log-likelihood agrees with."""
    rng = derive_rng(SEED, "rank-eval", design)
    points = dataset.by_design(design)
    scores = dataset.scores_for(design)
    insight = dataset.insight_for(design)
    log_probs = {}
    correct = 0
    total = 0
    for _ in range(n_pairs):
        i, j = rng.integers(0, len(points), size=2)
        if abs(scores[i] - scores[j]) < 0.05:
            continue
        for index in (int(i), int(j)):
            if index not in log_probs:
                log_probs[index] = sequence_log_prob_value(
                    model, insight, points[index].recipe_set
                )
        agree = (log_probs[int(i)] - log_probs[int(j)]) * (scores[i] - scores[j])
        correct += int(agree > 0)
        total += 1
    return correct / max(1, total)


def test_ablation_alignment_losses(benchmark):
    dataset = get_dataset()
    train_set = dataset.restricted_to(TRAIN_DESIGNS)

    def run_all():
        return {
            "margin-DPO (lam=2)": _train_margin_dpo(train_set, lam=2.0),
            "plain DPO (lam=0)": _train_margin_dpo(train_set, lam=0.0),
            "supervised imitation": _train_supervised(train_set),
        }

    models = run_once(benchmark, run_all)

    print("\n=== Ablation: alignment objective ===")
    print(f"{'objective':<24} " + " ".join(f"{d+' acc':>9}" for d in HELDOUT)
          + " " + " ".join(f"{d+' Win%':>9}" for d in HELDOUT))
    accs = {}
    for name, model in models.items():
        acc = [(_ranking_accuracy(model, dataset, d)) for d in HELDOUT]
        wins = [
            evaluate_design(model, dataset, d, beam_width=5, seed=SEED).win_pct
            for d in HELDOUT
        ]
        accs[name] = float(np.mean(acc))
        print(f"{name:<24} " + " ".join(f"{a:>9.3f}" for a in acc)
              + " " + " ".join(f"{w:>9.1f}" for w in wins))

    # Shape: margin-DPO ranks held-out pairs at least as well as plain DPO,
    # and clearly better than pure imitation.
    assert accs["margin-DPO (lam=2)"] >= accs["plain DPO (lam=0)"] - 0.05
    assert accs["margin-DPO (lam=2)"] >= accs["supervised imitation"] - 0.02
    assert accs["margin-DPO (lam=2)"] > 0.5
