#!/usr/bin/env python
"""Compare InsightAlign's zero-shot picks against the Section II baselines.

Every method gets the same budget of real flow evaluations on an unseen
design.  InsightAlign spends its budget on the top-K beam candidates of an
offline-aligned model (no design-specific evaluations needed to *choose*
them); the iterative baselines (random, BO, ACO, RL) spend theirs exploring
from scratch; matrix factorization ranks candidates from the same offline
archive but without insight conditioning.

Run:  python examples/compare_baselines.py [design]   (default D10)
"""

import sys

import numpy as np

from repro import InsightAlign, build_offline_dataset
from repro.baselines import (
    AntColonyTuner,
    BayesOptTuner,
    MatrixFactorRecommender,
    PolicyGradientTuner,
    RandomSearchTuner,
)
from repro.baselines.common import CachingObjective, TuningBudget
from repro.core.alignment import AlignmentConfig
from repro.core.qor import QoRIntention
from repro.flow.runner import run_flow
from repro.recipes.apply import apply_recipe_set
from repro.recipes.catalog import default_catalog
from repro.runtime import RuntimeConfig

BUDGET = 10


def main() -> None:
    design = sys.argv[1] if len(sys.argv) > 1 else "D10"
    dataset = build_offline_dataset(
        designs=["D6", "D10", "D11", "D14", "D16"],
        sets_per_design=60,
        seed=0,
        runtime=RuntimeConfig(workers=1),
    )
    catalog = default_catalog()
    normalizer = dataset.normalizer_for(design)

    def objective(bits):
        params = apply_recipe_set(list(bits), catalog)
        result = run_flow(design, params, seed=0)
        return normalizer.score(result.qor, QoRIntention())

    print(f"== Budget: {BUDGET} flow evaluations each, design {design} ==")
    budget = TuningBudget(evaluations=BUDGET)
    results = {}

    for name, tuner in [
        ("random search", RandomSearchTuner(seed=1)),
        ("bayesian opt", BayesOptTuner(seed=1, initial_random=4)),
        ("ant colony", AntColonyTuner(seed=1)),
        ("policy gradient RL", PolicyGradientTuner(seed=1)),
    ]:
        record = tuner.tune(CachingObjective(objective), budget)
        results[name] = record.best_score

    mf = MatrixFactorRecommender(iterations=15, seed=1).fit(
        dataset.restricted_to([d for d in dataset.designs() if d != design])
    )
    mf_scores = [objective(bits) for bits in mf.recommend(None, k=BUDGET)]
    results["matrix factorization"] = max(mf_scores)

    ia = InsightAlign.align_offline(
        dataset, holdout=(design,),
        config=AlignmentConfig(epochs=10, pairs_per_design=120, seed=1),
    )
    ia_scores = [
        objective(rec.recipe_set)
        for rec in ia.recommend(dataset.insight_for(design), k=BUDGET)
    ]
    results["InsightAlign (zero-shot)"] = max(ia_scores)

    best_known = dataset.scores_for(design).max()
    print(f"\n{'method':>26} {'best score':>11}")
    for name, score in sorted(results.items(), key=lambda kv: kv[1]):
        print(f"{name:>26} {score:11.3f}")
    print(f"{'(best known in archive)':>26} {best_known:11.3f}")


if __name__ == "__main__":
    main()
