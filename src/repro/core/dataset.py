"""Offline dataset: (design insight, recipe set, QoR) archive.

The paper's offline phase consumes ~3,000 datapoints collected from 17
designs with various recipe combinations.  This module regenerates that
archive with the simulated tool:

- one *probe run* per design under default parameters produces the design's
  insight vector (the paper's "first iteration / offline alignment" probe),
- every recipe set in the sampling plan is evaluated by a full flow run.

Sampling plan per design (~176 sets): the empty set, all 40 singletons, and
random multi-recipe combinations of size 2-6 — singletons expose individual
recipe effects, combinations expose interactions.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.qor import DesignNormalizer, QoRIntention
from repro.errors import TrainingError
from repro.insights.extractor import InsightExtractor, InsightVector
from repro.netlist.profiles import design_profiles, get_profile
from repro.recipes.apply import apply_recipe_set
from repro.recipes.catalog import default_catalog
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class DataPoint:
    """One archive entry: a recipe set and its QoR on one design."""

    design: str
    recipe_set: Tuple[int, ...]
    qor: Dict[str, float]


@dataclass
class OfflineDataset:
    """The offline archive plus per-design insight vectors."""

    points: List[DataPoint]
    insights: Dict[str, InsightVector]
    seed: int = 0
    _by_design: Dict[str, List[DataPoint]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._by_design = {}
        for point in self.points:
            self._by_design.setdefault(point.design, []).append(point)

    # ------------------------------------------------------------------
    def designs(self) -> List[str]:
        return sorted(self._by_design)

    def by_design(self, design: str) -> List[DataPoint]:
        try:
            return self._by_design[design]
        except KeyError:
            raise TrainingError(f"no datapoints for design {design!r}") from None

    def insight_for(self, design: str) -> np.ndarray:
        try:
            return self.insights[design].values
        except KeyError:
            raise TrainingError(f"no insight vector for design {design!r}") from None

    def __len__(self) -> int:
        return len(self.points)

    def scores_for(
        self, design: str, intention: QoRIntention = QoRIntention()
    ) -> np.ndarray:
        """Eq.-4 compound scores of the design's datapoints (aligned order)."""
        points = self.by_design(design)
        norm = self.normalizer_for(design, intention)
        return np.array(
            [norm.score(p.qor, intention) for p in points], dtype=np.float64
        )

    def normalizer_for(
        self, design: str, intention: QoRIntention = QoRIntention()
    ) -> DesignNormalizer:
        """Per-design metric normalizer fitted on all known datapoints."""
        return DesignNormalizer.fit(
            [p.qor for p in self.by_design(design)], intention
        )

    def best_known(
        self, design: str, intention: QoRIntention = QoRIntention()
    ) -> Tuple[DataPoint, float]:
        """The best-scoring known datapoint and its compound score."""
        points = self.by_design(design)
        scores = self.scores_for(design, intention)
        index = int(np.argmax(scores))
        return points[index], float(scores[index])

    def restricted_to(self, designs: Sequence[str]) -> "OfflineDataset":
        """Sub-dataset containing only ``designs`` (for CV splits)."""
        keep = set(designs)
        return OfflineDataset(
            points=[p for p in self.points if p.design in keep],
            insights={d: v for d, v in self.insights.items() if d in keep},
            seed=self.seed,
        )

    # ------------------------------------------------------------------
    def save(self, path: os.PathLike) -> None:
        with open(path, "wb") as handle:
            pickle.dump(
                {"points": self.points, "insights": self.insights, "seed": self.seed},
                handle,
                protocol=pickle.HIGHEST_PROTOCOL,
            )

    @classmethod
    def load(cls, path: os.PathLike) -> "OfflineDataset":
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        return cls(
            points=payload["points"],
            insights=payload["insights"],
            seed=payload.get("seed", 0),
        )


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def sample_recipe_sets(
    n_recipes: int, count: int, seed: int, design: str
) -> List[Tuple[int, ...]]:
    """The per-design sampling plan (deduplicated, deterministic)."""
    rng = derive_rng(seed, "recipe-sets", design)
    sets: List[Tuple[int, ...]] = [tuple([0] * n_recipes)]
    for index in range(n_recipes):
        bits = [0] * n_recipes
        bits[index] = 1
        sets.append(tuple(bits))
    seen = set(sets)
    while len(sets) < count:
        size = int(rng.integers(2, 7))
        chosen = rng.choice(n_recipes, size=size, replace=False)
        bits = [0] * n_recipes
        for index in chosen:
            bits[int(index)] = 1
        key = tuple(bits)
        if key not in seen:
            seen.add(key)
            sets.append(key)
    return sets[:count]


def build_offline_dataset(
    designs: Optional[Sequence[str]] = None,
    sets_per_design: int = 176,
    seed: int = 0,
    cache_path: Optional[os.PathLike] = None,
    verbose: bool = False,
    runtime: Optional["RuntimeConfig"] = None,
) -> OfflineDataset:
    """Build (or load from cache) the offline archive.

    Every flow run — the recipe-set grid *and* the per-design insight
    probes — is one :class:`~repro.runtime.session.FlowSession` batch, so
    the archive is identical at any worker count and individual results
    can be served from (and saved to) a persistent QoR cache.

    Args:
        designs: Design names; defaults to all 17 profiles.
        sets_per_design: Recipe sets per design (17 x 176 = 2,992 — the
            paper's ~3,000 datapoints).
        seed: Master seed for sampling and flow noise.
        cache_path: If given and the file exists, load it instead of
            rebuilding; otherwise build and save there.
        verbose: Print per-design progress.
        runtime: :class:`~repro.runtime.session.RuntimeConfig` for the
            build's FlowSession (workers, QoR cache, retry policy, trace
            toggle).  ``None`` keeps the historical default of one worker
            per CPU and no QoR cache; the config's ``seed`` is overridden
            by ``seed`` so job identity always follows the dataset seed.
    """
    from repro.observability import get_tracer
    from repro.runtime.parallel import FlowJob
    from repro.runtime.session import FlowSession, RuntimeConfig

    if runtime is None:
        runtime = RuntimeConfig(workers=max(1, os.cpu_count() or 1))
    runtime = runtime.replace(seed=seed)

    if cache_path is not None and os.path.exists(cache_path):
        return OfflineDataset.load(cache_path)

    names = list(designs) if designs is not None else [
        p.name for p in design_profiles()
    ]
    catalog = default_catalog()
    plans: List[Tuple[str, Tuple[int, ...]]] = []
    jobs: List[FlowJob] = []
    for name in names:
        for bits in sample_recipe_sets(len(catalog), sets_per_design, seed, name):
            plans.append((name, bits))
            jobs.append(
                FlowJob(name, apply_recipe_set(list(bits), catalog), seed)
            )
    # Probe runs (default parameters = the empty recipe set) ride in the
    # same batch; their snapshots feed the insight extractor below.
    probe_params = apply_recipe_set([0] * len(catalog), catalog)
    for name in names:
        jobs.append(FlowJob(name, probe_params, seed))

    with get_tracer().span(
        "dataset.build",
        designs=len(names),
        sets_per_design=sets_per_design,
        jobs=len(jobs),
        seed=seed,
    ):
        with FlowSession(runtime) as session:
            results = session.evaluate_strict(jobs)

        evaluated = [
            DataPoint(design=name, recipe_set=bits, qor=dict(result.qor))
            for (name, bits), result in zip(plans, results)
        ]
        extractor = InsightExtractor()
        insights: Dict[str, InsightVector] = {}
        for name, result in zip(names, results[len(plans):]):
            if verbose:
                print(f"probing {name} for insights")
            insights[name] = extractor.extract(result, get_profile(name))

    dataset = OfflineDataset(points=evaluated, insights=insights, seed=seed)
    if cache_path is not None:
        dataset.save(cache_path)
    return dataset
