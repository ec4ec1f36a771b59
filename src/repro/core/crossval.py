"""k-fold cross-validation zero-shot evaluation — the paper's Table IV.

The 17 designs are split into k = 4 random groups with roughly equal
datapoint counts.  In fold i, the designs of group i are held out; a model
is aligned on the remaining designs only, then queried zero-shot (beam
search, K = 5) for each held-out design using only its insight vector.  The
recommended recipe sets are evaluated with real flow runs, scored with the
*known-datapoint* normalizer of that design, and compared against the best
known recipe set ("Win%" = share of known sets the best recommendation
outperforms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.alignment import AlignmentConfig, AlignmentTrainer
from repro.core.beam import beam_search
from repro.core.dataset import OfflineDataset
from repro.core.model import InsightAlignModel
from repro.core.qor import QoRIntention
from repro.errors import TrainingError
from repro.recipes.apply import apply_recipe_set
from repro.recipes.catalog import default_catalog
from repro.runtime.parallel import FlowJob
from repro.runtime.session import FlowSession, RuntimeConfig
from repro.utils.rng import derive_rng


@dataclass
class DesignEvaluation:
    """One Table IV row."""

    design: str
    best_known_tns_ns: float
    best_known_power_mw: float
    best_known_score: float
    rec_tns_ns: float
    rec_power_mw: float
    rec_score: float
    win_pct: float
    recommended_sets: List[Tuple[int, ...]] = field(default_factory=list)
    recommended_qors: List[Dict[str, float]] = field(default_factory=list)
    recommended_scores: List[float] = field(default_factory=list)


@dataclass
class CrossValResult:
    """All rows plus fold bookkeeping."""

    rows: List[DesignEvaluation]
    folds: List[List[str]]
    models: List[InsightAlignModel] = field(default_factory=list)

    def row(self, design: str) -> DesignEvaluation:
        for row in self.rows:
            if row.design == design:
                return row
        raise KeyError(f"no evaluation row for {design}")


def make_folds(
    dataset: OfflineDataset, k: int = 4, seed: int = 0
) -> List[List[str]]:
    """Split designs into k groups with roughly equal datapoint counts."""
    if k < 2:
        raise TrainingError(f"need at least 2 folds, got {k}")
    designs = dataset.designs()
    if len(designs) < k:
        raise TrainingError(f"{len(designs)} designs cannot fill {k} folds")
    rng = derive_rng(seed, "folds")
    order = list(rng.permutation(designs))
    counts = {d: len(dataset.by_design(d)) for d in designs}
    folds: List[List[str]] = [[] for _ in range(k)]
    loads = [0] * k
    # Greedy balancing: biggest designs first onto the lightest fold.
    for design in sorted(order, key=lambda d: -counts[d]):
        lightest = int(np.argmin(loads))
        folds[lightest].append(design)
        loads[lightest] += counts[design]
    return folds


def evaluate_design(
    model: InsightAlignModel,
    dataset: OfflineDataset,
    design: str,
    intention: QoRIntention = QoRIntention(),
    beam_width: int = 5,
    seed: int = 0,
    session: Optional[FlowSession] = None,
    runtime: Optional[RuntimeConfig] = None,
) -> DesignEvaluation:
    """Zero-shot evaluation of one (held-out) design against its archive.

    The beam's candidate recipe sets are evaluated as one
    :class:`~repro.runtime.session.FlowSession` batch — supervised,
    cacheable, concurrent, and bit-identical to the historical one-by-one
    ``run_flow`` loop at any worker count.  Pass ``session`` to share a
    pool/cache across many designs (the caller keeps ownership), or
    ``runtime`` to configure a private session for this call; the
    private session's ``seed`` is overridden by ``seed`` so candidate
    identity always follows the evaluation seed.
    """
    if session is not None and runtime is not None:
        raise TrainingError(
            "pass session= (shared, caller-owned) or runtime= "
            "(private), not both"
        )
    catalog = default_catalog()
    insight = dataset.insight_for(design)
    candidates = beam_search(model, insight, beam_width=beam_width)

    owns_session = session is None
    if session is None:
        session = FlowSession((runtime or RuntimeConfig()).replace(seed=seed))
    try:
        results = session.evaluate_strict([
            FlowJob(
                design,
                apply_recipe_set(list(candidate.recipe_set), catalog),
                seed,
            )
            for candidate in candidates
        ])
    finally:
        if owns_session:
            session.close()

    normalizer = dataset.normalizer_for(design, intention)
    qors: List[Dict[str, float]] = []
    scores: List[float] = []
    for result in results:
        qors.append(dict(result.qor))
        scores.append(normalizer.score(result.qor, intention))

    best_rec = int(np.argmax(scores))
    known_scores = dataset.scores_for(design, intention)
    best_known_index = int(np.argmax(known_scores))
    best_known = dataset.by_design(design)[best_known_index]
    win_pct = 100.0 * float((known_scores < scores[best_rec]).mean())

    return DesignEvaluation(
        design=design,
        best_known_tns_ns=best_known.qor["tns_ns"],
        best_known_power_mw=best_known.qor["power_mw"],
        best_known_score=float(known_scores[best_known_index]),
        rec_tns_ns=qors[best_rec]["tns_ns"],
        rec_power_mw=qors[best_rec]["power_mw"],
        rec_score=float(scores[best_rec]),
        win_pct=win_pct,
        recommended_sets=[c.recipe_set for c in candidates],
        recommended_qors=qors,
        recommended_scores=scores,
    )


def cross_validate(
    dataset: OfflineDataset,
    k: int = 4,
    intention: QoRIntention = QoRIntention(),
    config: Optional[AlignmentConfig] = None,
    beam_width: int = 5,
    seed: int = 0,
    verbose: bool = False,
    runtime: Optional[RuntimeConfig] = None,
) -> CrossValResult:
    """The full Table IV protocol: k folds, zero-shot rows for all designs.

    One :class:`~repro.runtime.session.FlowSession` built from
    ``runtime`` is shared across every fold's evaluations, so the worker
    pool stays warm and the QoR cache (when configured) serves repeats
    across designs.  The config's ``seed`` is overridden by ``seed``.
    """
    folds = make_folds(dataset, k=k, seed=seed)
    config = config if config is not None else AlignmentConfig(seed=seed)
    rows: List[DesignEvaluation] = []
    models: List[InsightAlignModel] = []
    with FlowSession((runtime or RuntimeConfig()).replace(seed=seed)) as session:
        for fold_index, held_out in enumerate(folds):
            train_designs = [
                d for d in dataset.designs() if d not in set(held_out)
            ]
            train_set = dataset.restricted_to(train_designs)
            trainer = AlignmentTrainer(config)
            model, _ = trainer.train(train_set, intention, verbose=verbose)
            models.append(model)
            for design in held_out:
                if verbose:
                    print(f"fold {fold_index}: evaluating {design}")
                rows.append(
                    evaluate_design(
                        model, dataset, design, intention,
                        beam_width=beam_width, seed=seed, session=session,
                    )
                )
    rows.sort(key=lambda r: int(r.design[1:]))
    return CrossValResult(rows=rows, folds=folds, models=models)
