#!/usr/bin/env python
"""Quickstart: align a recommender offline and get zero-shot recipe sets.

This walks the full InsightAlign pipeline at miniature scale (~3 minutes):

1. Build a small offline archive (4 designs x 60 recipe sets) by running
   the simulated P&R flow.
2. Align the recipe model with margin-based DPO, holding one design out.
3. Ask for the top-5 recipe sets for the held-out design (zero-shot) and
   verify them with real flow runs.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import InsightAlign, build_offline_dataset
from repro.core.alignment import AlignmentConfig
from repro.flow.runner import run_flow
from repro.recipes.apply import apply_recipe_set
from repro.recipes.catalog import default_catalog
from repro.runtime import RuntimeConfig

HOLDOUT = "D4"


def main() -> None:
    print("== 1. Building the offline archive (simulated P&R runs) ==")
    dataset = build_offline_dataset(
        designs=["D4", "D6", "D10", "D11"],
        sets_per_design=60,
        seed=0,
        runtime=RuntimeConfig(workers=1),
    )
    print(f"   {len(dataset)} datapoints over {len(dataset.designs())} designs")

    print(f"== 2. Offline alignment (margin-DPO), holding out {HOLDOUT} ==")
    ia = InsightAlign.align_offline(
        dataset,
        holdout=(HOLDOUT,),
        config=AlignmentConfig(epochs=10, pairs_per_design=120, seed=0),
        verbose=True,
    )

    print(f"== 3. Zero-shot recommendations for unseen design {HOLDOUT} ==")
    insight = dataset.insight_for(HOLDOUT)
    recommendations = ia.recommend(insight, k=5)
    catalog = default_catalog()
    normalizer = dataset.normalizer_for(HOLDOUT)
    known_scores = dataset.scores_for(HOLDOUT)
    print(f"   best known compound score: {known_scores.max():+.3f}")

    best_score = -np.inf
    for rank, rec in enumerate(recommendations, start=1):
        params = apply_recipe_set(list(rec.recipe_set), catalog)
        result = run_flow(HOLDOUT, params, seed=0)
        score = normalizer.score(result.qor, ia.intention)
        best_score = max(best_score, score)
        names = ", ".join(rec.recipe_names) or "(default flow)"
        print(
            f"   #{rank}: score {score:+.3f}  "
            f"power {result.qor['power_mw']:9.3f} mW  "
            f"TNS {result.qor['tns_ns']:8.3f} ns  <- {names}"
        )

    win = 100.0 * float((known_scores < best_score).mean())
    print(f"   Win%: best-of-5 beats {win:.1f}% of known recipe sets")


if __name__ == "__main__":
    main()
