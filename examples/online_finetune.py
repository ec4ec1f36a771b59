#!/usr/bin/env python
"""Online fine-tuning demo: the closed loop of Figure 1(b) / Section III.G.

Starting from an offline-aligned model, the recommender proposes K = 5
recipe sets per iteration, the (simulated) P&R tool evaluates them, and the
policy updates from the fresh QoR feedback with margin-DPO + PPO.  The
printed trajectory mirrors the paper's Fig. 6: best-so-far compound score,
power and TNS per iteration.

Run:  python examples/online_finetune.py [design]   (default D10)
"""

import sys

from repro import InsightAlign, build_offline_dataset
from repro.core.alignment import AlignmentConfig
from repro.core.online import OnlineConfig
from repro.runtime import RuntimeConfig


def main() -> None:
    design = sys.argv[1] if len(sys.argv) > 1 else "D10"
    print("== Building a small offline archive ==")
    dataset = build_offline_dataset(
        designs=["D6", "D10", "D11", "D16"],
        sets_per_design=60,
        seed=0,
        runtime=RuntimeConfig(workers=1),
    )

    print(f"== Offline alignment (holding out {design}) ==")
    ia = InsightAlign.align_offline(
        dataset,
        holdout=(design,),
        config=AlignmentConfig(epochs=10, pairs_per_design=120, seed=0),
    )

    known_best = dataset.scores_for(design).max()
    print(f"   best known compound score for {design}: {known_best:+.3f}")

    print(f"== Online fine-tuning on {design} (K=5 per iteration) ==")
    result = ia.fine_tune_online(
        dataset, design,
        config=OnlineConfig(iterations=8, k=5, seed=0),
    )
    print(f"{'iter':>4} {'best score':>11} {'avg top-5':>10} "
          f"{'best power (mW)':>16} {'best TNS (ns)':>14}")
    for record in result.records:
        print(
            f"{record.iteration:4d} {record.best_score_so_far:11.3f} "
            f"{record.avg_top5_so_far:10.3f} {record.best_power_so_far:16.4f} "
            f"{record.best_tns_so_far:14.4f}"
        )

    final = result.records[-1].best_score_so_far
    verdict = "surpassed" if final > known_best else "reached"
    print(f"\n   online fine-tuning {verdict} the best known recipe set "
          f"({final:+.3f} vs {known_best:+.3f})")


if __name__ == "__main__":
    main()
