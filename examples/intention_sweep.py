#!/usr/bin/env python
"""Intention sweep: the same archive, different QoR intentions.

The compound score (paper eq. 4) is user-defined: the paper's running
example weighs power 0.7 / TNS 0.3, but the framework supports any weighted
metric mix.  This example aligns three recommenders — power-focused,
timing-focused, and DRC-aware — on the same offline archive and shows how
the zero-shot recommendations for one unseen design shift with the
intention.

Run:  python examples/intention_sweep.py [design]   (default D13)
"""

import sys

from repro import InsightAlign, build_offline_dataset
from repro.core.alignment import AlignmentConfig
from repro.core.qor import QoRIntention
from repro.flow.runner import run_flow
from repro.recipes.apply import apply_recipe_set
from repro.recipes.catalog import default_catalog
from repro.runtime import RuntimeConfig

INTENTIONS = {
    "paper default (0.7 power / 0.3 TNS)": QoRIntention(),
    "timing-first (0.8 TNS / 0.2 power)": QoRIntention(
        metrics=(("tns_ns", 0.8, False), ("power_mw", 0.2, False))
    ),
    "signoff-clean (TNS + power + DRC)": QoRIntention(
        metrics=(
            ("tns_ns", 0.4, False),
            ("power_mw", 0.3, False),
            ("drc_count", 0.3, False),
        )
    ),
}


def main() -> None:
    design = sys.argv[1] if len(sys.argv) > 1 else "D13"
    print("== Building a small offline archive ==")
    dataset = build_offline_dataset(
        designs=["D3", "D6", "D13", "D17"],
        sets_per_design=60,
        seed=0,
        runtime=RuntimeConfig(workers=1),
    )
    catalog = default_catalog()

    picks = {}
    for label, intention in INTENTIONS.items():
        ia = InsightAlign.align_offline(
            dataset,
            intention=intention,
            holdout=(design,),
            # The BC anchor keeps recommendations near archive-like recipe
            # densities so the intention-driven differences are readable.
            config=AlignmentConfig(epochs=10, pairs_per_design=120, seed=0,
                                   bc_anchor_weight=0.03),
        )
        rec = ia.recommend(dataset.insight_for(design), k=1)[0]
        picks[label] = set(rec.recipe_names)
        params = apply_recipe_set(list(rec.recipe_set), catalog)
        result = run_flow(design, params, seed=0)
        print(f"\n== {label} ==")
        print(f"   {len(rec.recipe_names)} recipes selected")
        print(
            f"   -> TNS {result.qor['tns_ns']:9.3f} ns   "
            f"power {result.qor['power_mw']:9.3f} mW   "
            f"DRCs {result.qor['drc_count']:5.0f}"
        )

    print("\n== How the intention changes the selection ==")
    labels = list(picks)
    base = picks[labels[0]]
    for label in labels[1:]:
        added = sorted(picks[label] - base)
        dropped = sorted(base - picks[label])
        print(f"vs default, '{label}':")
        print(f"   adds:  {', '.join(added) or '(nothing)'}")
        print(f"   drops: {', '.join(dropped) or '(nothing)'}")


if __name__ == "__main__":
    main()
