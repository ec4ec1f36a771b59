"""Shared baseline infrastructure: budgets, histories, objectives.

An objective is a plain callable ``bits -> score``.  Objectives may
additionally expose ``evaluate_batch(recipe_sets) -> scores``; tuners that
generate whole populations (random search draws, ACO generations) probe for
it with :func:`batch_evaluate` and fan a population out in one call —
which a :class:`ParallelFlowObjective` turns into one concurrent
:class:`~repro.runtime.session.FlowSession` batch.  Scores are identical
either way; only wall-clock changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

Objective = Callable[[Tuple[int, ...]], float]


def batch_evaluate(
    objective: Objective, recipe_sets: Sequence[Tuple[int, ...]]
) -> List[float]:
    """Score ``recipe_sets`` through ``objective``, batched when it can.

    Uses the objective's ``evaluate_batch`` method when present (one
    concurrent flow batch), else falls back to one call per set — the two
    paths return identical scores for a deterministic objective.
    """
    batch = getattr(objective, "evaluate_batch", None)
    if batch is not None:
        return [float(score) for score in batch(list(recipe_sets))]
    return [float(objective(bits)) for bits in recipe_sets]


@dataclass(frozen=True)
class TuningBudget:
    """Evaluation budget shared by all tuners (flow runs are the cost)."""

    evaluations: int = 25

    def __post_init__(self) -> None:
        if self.evaluations < 1:
            raise ValueError(f"budget must be >= 1, got {self.evaluations}")


@dataclass
class EvalRecord:
    """History of one tuning session."""

    recipe_sets: List[Tuple[int, ...]] = field(default_factory=list)
    scores: List[float] = field(default_factory=list)

    def add(self, recipe_set: Tuple[int, ...], score: float) -> None:
        self.recipe_sets.append(tuple(recipe_set))
        self.scores.append(float(score))

    @property
    def best_score(self) -> float:
        return max(self.scores) if self.scores else float("-inf")

    @property
    def best_recipe_set(self) -> Tuple[int, ...]:
        if not self.scores:
            raise ValueError("no evaluations recorded")
        return self.recipe_sets[int(np.argmax(self.scores))]

    def best_so_far(self) -> np.ndarray:
        """Running maximum (convergence curve)."""
        return np.maximum.accumulate(np.asarray(self.scores, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.scores)


class CachingObjective:
    """Wraps an objective so duplicate recipe sets don't burn budget."""

    def __init__(self, objective: Objective) -> None:
        self._objective = objective
        self._cache: dict = {}
        self.calls = 0

    def __call__(self, recipe_set: Tuple[int, ...]) -> float:
        key = tuple(recipe_set)
        if key not in self._cache:
            self.calls += 1
            self._cache[key] = float(self._objective(key))
        return self._cache[key]

    def evaluate_batch(
        self, recipe_sets: Sequence[Tuple[int, ...]]
    ) -> List[float]:
        """Batch lookup: only cache misses reach the wrapped objective."""
        keys = [tuple(bits) for bits in recipe_sets]
        missing: List[Tuple[int, ...]] = []
        for key in keys:
            if key not in self._cache and key not in missing:
                missing.append(key)
        if missing:
            self.calls += len(missing)
            for key, score in zip(missing, batch_evaluate(
                    self._objective, missing)):
                self._cache[key] = float(score)
        return [self._cache[key] for key in keys]


class ParallelFlowObjective:
    """``bits -> score`` through concurrent, cacheable flow batches.

    Maps each recipe set onto :class:`~repro.flow.parameters.FlowParameters`
    via the catalog, evaluates a population as one
    :class:`~repro.runtime.session.FlowSession` batch, and scores the
    resulting QoR dicts with ``score_fn`` (typically a fitted
    :meth:`~repro.core.qor.DesignNormalizer.score`).  Single calls go
    through the same session, so the persistent QoR cache (when
    configured) serves repeats across tuners and sessions.

    ``session`` shares an existing :class:`FlowSession` (and its pool and
    cache) across several objectives; otherwise one is built from
    ``runtime``.  The config's ``seed`` is overridden by ``seed`` so job
    identity always follows the objective seed.
    """

    def __init__(
        self,
        design: str,
        score_fn: Callable[[dict], float],
        session: Optional["FlowSession"] = None,
        runtime: Optional["RuntimeConfig"] = None,
        seed: int = 0,
    ) -> None:
        from repro.recipes.catalog import default_catalog
        from repro.runtime.session import FlowSession, RuntimeConfig

        self.design = design
        self.score_fn = score_fn
        self.seed = seed
        self._catalog = default_catalog()
        self._owns_session = session is None
        if session is None:
            session = FlowSession(
                (runtime or RuntimeConfig()).replace(seed=seed)
            )
        self._session = session

    def __call__(self, recipe_set: Tuple[int, ...]) -> float:
        return self.evaluate_batch([recipe_set])[0]

    def evaluate_batch(
        self, recipe_sets: Sequence[Tuple[int, ...]]
    ) -> List[float]:
        from repro.recipes.apply import apply_recipe_set
        from repro.runtime.parallel import FlowJob

        jobs = [
            FlowJob(
                self.design,
                apply_recipe_set(list(bits), self._catalog),
                self.seed,
            )
            for bits in recipe_sets
        ]
        results = self._session.evaluate_strict(jobs)
        return [float(self.score_fn(result.qor)) for result in results]

    def close(self) -> None:
        """Release the session's pool — only if this objective built it."""
        if self._owns_session:
            self._session.close()
