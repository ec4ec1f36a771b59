"""Online fine-tuning — closed-loop adaptation (paper Section III.G, Fig. 6/7).

Each iteration: the policy proposes K = 5 *new* recipe sets (beam search
over the current policy, skipping sets already evaluated), the flow runs
them, and the model updates from the fresh QoR feedback with margin-based
DPO (pairs drawn from everything observed on this design so far) plus the
PPO clipped surrogate (advantages = centered batch scores).  Insights are
refreshed from the best run of each iteration, so the conditioning context
tracks the design as the paper describes ("additional insights are
gathered, providing a progressively generalized view of the design").

Fault tolerance: every flow invocation goes through a
:class:`~repro.runtime.executor.FlowExecutor` (deadline + bounded retries +
typed errors).  A recipe set whose evaluation still fails is recorded in
the iteration's :class:`FlowFailure` list, logged with its typed cause, and
excluded from the DPO/PPO batch — the iteration proceeds with the
surviving K' < K runs.  If fewer than ``min_successes`` survive, the model
update (and insight refresh) for that iteration is skipped entirely rather
than learning from a degenerate batch.  With ``checkpoint_path`` set, the
full loop state is atomically persisted every ``checkpoint_every``
iterations and ``resume_from`` continues a killed run bit-identically.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.beam import beam_search, sample_decode
from repro.core.dataset import OfflineDataset
from repro.core.model import InsightAlignModel
from repro.core.policy import sequence_log_prob, sequence_log_prob_value
from repro.core.ppo import advantages_from_scores, ppo_loss
from repro.core.qor import QoRIntention
from repro.errors import TrainingError
from repro.insights.extractor import InsightExtractor
from repro.netlist.profiles import get_profile
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.tensor import Tensor
from repro.observability import get_registry, get_tracer
from repro.recipes.apply import apply_recipe_set
from repro.recipes.catalog import default_catalog
from repro.runtime.executor import FlowExecutor
from repro.runtime.parallel import FlowJob
from repro.runtime.session import FlowSession, RuntimeConfig
from repro.utils.rng import derive_rng

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class OnlineConfig:
    """Hyperparameters of the online fine-tuning loop (K = 5, as the paper)."""

    iterations: int = 10
    k: int = 5
    learning_rate: float = 1e-3
    lam: float = 2.0
    ppo_weight: float = 0.5
    ppo_clip: float = 0.2
    dpo_pairs_per_update: int = 48
    grad_clip: float = 5.0
    insight_refresh: float = 0.3
    explore_samples: int = 1
    seed: int = 0
    # Fault tolerance: an iteration updates the model only when at least
    # ``min_successes`` of its K evaluations survived the executor.
    min_successes: int = 1
    # Crash safety: atomic checkpoint of the full loop state (model,
    # optimizer, RNG, observed runs, records) every N iterations, and
    # bit-identical resume from such a file.
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 1
    resume_from: Optional[str] = None
    # How the K proposals of each iteration are evaluated: workers, QoR
    # cache, retry policy, trace toggle — one validated RuntimeConfig for
    # the loop's FlowSession.  None means the sequential in-process
    # default (bit-identical to any worker count for the same seeds).
    runtime: Optional[RuntimeConfig] = None
    # Actor/learner execution of the loop itself: actor count, sync vs
    # bounded-staleness async, elastic-membership budgets — a validated
    # repro.distributed.DistributedConfig.  None (default) runs the loop
    # in-process; a non-None value is honored by
    # repro.distributed.DistributedOnlineFineTuner (constructing the
    # plain serial tuner with one is a configuration error).
    distributed: Optional["DistributedConfig"] = None  # noqa: F821

    def __post_init__(self) -> None:
        if self.distributed is not None:
            # Imported lazily: repro.distributed composes *this* config,
            # so an eager import would be circular.
            from repro.distributed.config import DistributedConfig

            if not isinstance(self.distributed, DistributedConfig):
                raise TrainingError(
                    f"distributed must be a DistributedConfig or None, "
                    f"got {type(self.distributed).__name__}"
                )

    def resolved_runtime(self) -> RuntimeConfig:
        """The loop's effective :class:`RuntimeConfig`: ``runtime``, or
        the in-process default seeded with the loop's ``seed``."""
        if self.runtime is not None:
            return self.runtime
        return RuntimeConfig(seed=self.seed)


@dataclass
class FlowFailure:
    """One recipe-set evaluation the executor gave up on."""

    iteration: int
    recipe_set: Tuple[int, ...]
    error_type: str
    message: str
    attempts: int


@dataclass
class IterationRecord:
    """Everything one online iteration produced (Fig. 6/7 raw data).

    ``recipe_sets`` / ``qors`` / ``scores`` hold only the *surviving*
    evaluations (aligned by index); failed ones land in ``failures``.
    """

    iteration: int
    recipe_sets: List[Tuple[int, ...]]
    qors: List[Dict[str, float]]
    scores: List[float]
    best_score_so_far: float
    avg_top5_so_far: float
    best_power_so_far: float
    best_tns_so_far: float
    failures: List[FlowFailure] = field(default_factory=list)
    updated: bool = True


@dataclass
class OnlineResult:
    """Full fine-tuning trajectory for one design."""

    design: str
    records: List[IterationRecord] = field(default_factory=list)
    model: Optional[InsightAlignModel] = None

    def trajectory(self, key: str) -> np.ndarray:
        return np.array([getattr(r, key) for r in self.records])

    @property
    def all_points(self) -> List[Tuple[int, Dict[str, float], float]]:
        """(iteration, qor, score) for every evaluated recipe set (Fig. 7)."""
        out = []
        for record in self.records:
            for qor, score in zip(record.qors, record.scores):
                out.append((record.iteration, qor, score))
        return out

    @property
    def failures(self) -> List[FlowFailure]:
        """Every failed evaluation across the whole run, in order."""
        out: List[FlowFailure] = []
        for record in self.records:
            out.extend(record.failures)
        return out


@dataclass
class _LoopState:
    """The mutable state one online run threads through its iterations.

    Bundled so the iteration-absorption step (:meth:`OnlineFineTuner._absorb`)
    has a single override-friendly signature — the distributed async learner
    reuses the exact serial accounting/update/checkpoint body against
    experience batches that arrived out of proposal order.
    """

    design: str
    model: InsightAlignModel
    optimizer: Adam
    rng: np.random.Generator
    insight: np.ndarray
    observed: List[Tuple[Tuple[int, ...], float]]
    seen: set
    result: OnlineResult
    best_overall: Tuple[float, Optional[Dict[str, float]]]
    normalizer: object
    intention: QoRIntention
    extractor: InsightExtractor
    profile: object
    verbose: bool = False


class OnlineFineTuner:
    """Runs the closed-loop fine-tuning of an aligned model on one design.

    Every flow invocation goes through one :class:`FlowSession` built
    from ``config.runtime`` (workers, QoR cache, retry policy, trace
    toggle); each iteration's K proposals are a single
    ``session.evaluate`` batch — bit-identical results at any worker
    count, K-way concurrent wall-clock when workers allow.

    ``executor`` remains the test-oriented escape hatch: a fully-built
    :class:`FlowExecutor` (closures, virtual clocks, wrapped fault
    injectors) that the session runs every job through sequentially,
    exactly as before the session layer existed.
    """

    def __init__(
        self,
        config: OnlineConfig = OnlineConfig(),
        executor: Optional[FlowExecutor] = None,
        flow_fn: Optional[Callable] = None,
    ) -> None:
        if config.distributed is not None and type(self) is OnlineFineTuner:
            raise TrainingError(
                "config.distributed is set; use "
                "repro.distributed.DistributedOnlineFineTuner (or "
                "repro.distributed.fine_tuner_for) to honor it"
            )
        self.config = config
        self._flow_fn = flow_fn
        if executor is not None:
            self._session = FlowSession(
                config.runtime or RuntimeConfig(),
                flow_fn=flow_fn,
                executor=executor,
            )
        else:
            self._session = FlowSession(
                config.resolved_runtime(), flow_fn=flow_fn
            )

    @property
    def session(self) -> FlowSession:
        """The loop's flow-evaluation session."""
        return self._session

    def close(self) -> None:
        """Release the session's worker pool, if one was started."""
        self._session.close()

    def __enter__(self) -> "OnlineFineTuner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(
        self,
        model: InsightAlignModel,
        dataset: OfflineDataset,
        design: str,
        intention: QoRIntention = QoRIntention(),
        verbose: bool = False,
    ) -> OnlineResult:
        cfg = self.config
        if cfg.min_successes < 0:
            raise TrainingError(
                f"min_successes must be >= 0, got {cfg.min_successes}"
            )
        if cfg.checkpoint_every < 1:
            raise TrainingError(
                f"checkpoint_every must be >= 1, got {cfg.checkpoint_every}"
            )
        rng = derive_rng(cfg.seed, "online", design)
        catalog = default_catalog()
        extractor = InsightExtractor()
        profile = get_profile(design)
        normalizer = dataset.normalizer_for(design, intention)
        insight = dataset.insight_for(design).copy()
        optimizer = Adam(model.parameters(), lr=cfg.learning_rate)

        observed: List[Tuple[Tuple[int, ...], float]] = []
        seen: set = set()
        result = OnlineResult(design=design)
        best_overall: Tuple[float, Optional[Dict[str, float]]] = (-np.inf, None)
        start_iteration = 0
        if cfg.resume_from:
            start_iteration, insight, best_overall = self._restore(
                model, optimizer, rng, design, observed, seen, result
            )

        state = _LoopState(
            design=design, model=model, optimizer=optimizer, rng=rng,
            insight=insight, observed=observed, seen=seen, result=result,
            best_overall=best_overall, normalizer=normalizer,
            intention=intention, extractor=extractor, profile=profile,
            verbose=verbose,
        )
        tracer = get_tracer()
        with tracer.span(
            "online.run",
            design=design,
            iterations=cfg.iterations,
            k=cfg.k,
            seed=cfg.seed,
        ):
            for iteration in range(start_iteration, cfg.iterations):
                with tracer.span(
                    "online.iteration", iteration=iteration
                ) as iter_span:
                    proposals = self._propose(model, state.insight, seen, rng)
                    params_list = [
                        apply_recipe_set(list(bits), catalog)
                        for bits in proposals
                    ]
                    with tracer.span(
                        "online.evaluate", proposals=len(proposals)
                    ):
                        reports = self._evaluate(
                            design, params_list, dataset.seed,
                            iteration=iteration,
                        )
                    record = self._absorb(state, iteration, proposals,
                                          reports)
                    iter_span.set_attributes(
                        survivors=len(record.recipe_sets),
                        failures=len(record.failures),
                        updated=record.updated,
                        best_score=record.best_score_so_far,
                    )
        result.model = model
        return result

    def _absorb(self, state: _LoopState, iteration: int, proposals,
                reports) -> IterationRecord:
        """Fold one iteration's evaluated proposals into the loop state.

        Everything after evaluation lives here — survivor/failure triage,
        the margin-DPO + PPO update, the insight refresh, the iteration
        record, metrics and the checkpoint — so the serial loop and the
        distributed async learner (whose batches are experience records
        reassembled from actor pipes) share one accounting body, RNG draw
        for RNG draw.
        """
        cfg = self.config
        tracer = get_tracer()
        registry = get_registry()
        design = state.design
        survivors: List[Tuple[int, ...]] = []
        qors: List[Dict[str, float]] = []
        scores: List[float] = []
        failures: List[FlowFailure] = []
        best_run = None
        best_run_score = -np.inf
        for bits, report in zip(proposals, reports):
            state.seen.add(bits)
            if not report.ok:
                error = report.error
                failures.append(FlowFailure(
                    iteration=iteration,
                    recipe_set=bits,
                    error_type=type(error).__name__,
                    message=str(error),
                    attempts=len(report.attempts),
                ))
                registry.counter(
                    "online_flow_failures_total",
                    "failed evaluations in the online loop",
                ).inc(type=type(error).__name__)
                logger.warning(
                    "%s iter %d: recipe set evaluation failed "
                    "after %d attempt(s) with %s: %s",
                    design, iteration, len(report.attempts),
                    type(error).__name__, error,
                )
                continue
            flow = report.result
            score = state.normalizer.score(flow.qor, state.intention)
            survivors.append(bits)
            qors.append(dict(flow.qor))
            scores.append(score)
            state.observed.append((bits, score))
            if score > best_run_score:
                best_run_score = score
                best_run = flow
            if score > state.best_overall[0]:
                state.best_overall = (score, dict(flow.qor))

        updated = len(survivors) >= max(1, cfg.min_successes)
        if updated:
            with tracer.span(
                "online.update", survivors=len(survivors)
            ):
                self._update(
                    state.model, state.optimizer, state.insight,
                    survivors, scores, state.observed, state.rng,
                )
            if cfg.insight_refresh > 0 and best_run is not None:
                fresh = state.extractor.extract(
                    best_run, state.profile
                ).values
                state.insight = (
                    (1.0 - cfg.insight_refresh) * state.insight
                    + cfg.insight_refresh * fresh
                )
        else:
            logger.warning(
                "%s iter %d: only %d/%d evaluations survived "
                "(min_successes=%d), skipping the model update",
                design, iteration, len(survivors), len(proposals),
                cfg.min_successes,
            )

        record = self._record(
            iteration, survivors, qors, scores, state.observed,
            state.best_overall[1],
        )
        record.failures = failures
        record.updated = updated
        state.result.records.append(record)
        registry.counter(
            "online_iterations_total", "online iterations run"
        ).inc()
        if np.isfinite(record.best_score_so_far):
            registry.gauge(
                "online_best_score",
                "best QoR score observed so far",
            ).set(record.best_score_so_far)
        if np.isfinite(record.avg_top5_so_far):
            registry.gauge(
                "online_avg_top5",
                "mean of the top-5 QoR scores so far",
            ).set(record.avg_top5_so_far)
        if cfg.checkpoint_path and (
            (iteration + 1) % cfg.checkpoint_every == 0
            or iteration + 1 == cfg.iterations
        ):
            self._checkpoint(
                state.model, state.optimizer, state.rng, design,
                iteration, state.observed, state.seen, state.insight,
                state.best_overall, state.result,
            )
        if state.verbose:
            print(
                f"{design} iter {iteration}: best so far "
                f"{record.best_score_so_far:.3f} "
                f"avg-top5 {record.avg_top5_so_far:.3f} "
                f"({len(survivors)}/{len(proposals)} runs ok)"
            )
        return record

    # ------------------------------------------------------------------
    def _evaluate(self, design, params_list, seed, iteration=0):
        """Evaluate one iteration's proposals as a single session batch
        (outcomes come back in proposal order).

        ``iteration`` is unused here — per-job randomness is keyed by
        batch index alone, as it always was — but the distributed
        subclass needs it to label dispatches, so the override point
        carries it.
        """
        del iteration
        return self._session.evaluate(
            [FlowJob(design, params, seed) for params in params_list]
        )

    # ------------------------------------------------------------------
    def _checkpoint(self, model, optimizer, rng, design, iteration,
                    observed, seen, insight, best_overall, result) -> None:
        """Atomically persist the full loop state at an iteration boundary."""
        from repro.runtime.checkpoint import TrainingCheckpoint, save_checkpoint

        save_checkpoint(
            TrainingCheckpoint(
                kind="online",
                step=iteration,
                model_state=model.state_dict(),
                optimizer_state=optimizer.state_dict(),
                rng_state=rng.bit_generator.state,
                payload={
                    "design": design,
                    "seed": self.config.seed,
                    "observed": list(observed),
                    "seen": sorted(seen),
                    "insight": np.asarray(insight).copy(),
                    "best_overall": best_overall,
                    "records": list(result.records),
                },
            ),
            self.config.checkpoint_path,
        )

    def _restore(self, model, optimizer, rng, design, observed, seen, result):
        """Load ``resume_from`` into the live loop state (bit-identical)."""
        from repro.errors import CheckpointError
        from repro.runtime.checkpoint import intern_keys, load_checkpoint

        cfg = self.config
        checkpoint = load_checkpoint(cfg.resume_from, expected_kind="online")
        payload = checkpoint.payload
        if payload.get("design") != design:
            raise CheckpointError(
                f"checkpoint is for design {payload.get('design')!r}, "
                f"cannot resume fine-tuning on {design!r}"
            )
        saved_seed = payload.get("seed")
        if saved_seed is not None and saved_seed != cfg.seed:
            raise CheckpointError(
                f"checkpoint was tuned with seed {saved_seed}, "
                f"config has seed {cfg.seed}; resuming would diverge"
            )
        try:
            model.load_state_dict(checkpoint.model_state)
        except (KeyError, ValueError) as err:
            raise CheckpointError(
                f"checkpoint weights do not fit this model: {err}"
            ) from err
        optimizer.load_state_dict(checkpoint.optimizer_state)
        rng.bit_generator.state = checkpoint.rng_state
        observed[:] = [
            (tuple(bits), float(score)) for bits, score in payload["observed"]
        ]
        seen.clear()
        seen.update(tuple(bits) for bits in payload["seen"])
        result.records[:] = payload.get("records", [])
        # astype (not .copy()) so the restored array re-acquires numpy's
        # interned dtype — unpickled arrays carry a fresh dtype instance,
        # which would change the next checkpoint's pickle bytes.
        insight = np.asarray(payload["insight"])
        insight = insight.astype(insight.dtype.str, copy=True)
        best_score, best_qor = payload["best_overall"]
        # Unpickled QoR dicts carry fresh key-string objects; re-key them
        # with the interned literals so the *next* checkpoint this run
        # writes pickles byte-identically to an uninterrupted run's.
        for record in result.records:
            for qor in record.qors:
                intern_keys(qor)
        if best_qor is not None:
            intern_keys(best_qor)
        return checkpoint.step + 1, insight, (best_score, best_qor)

    # ------------------------------------------------------------------
    def _propose(self, model, insight, seen, rng) -> List[Tuple[int, ...]]:
        """K fresh recipe sets: beam first, sampling for the remainder."""
        cfg = self.config
        picks: List[Tuple[int, ...]] = []
        for candidate in beam_search(model, insight, beam_width=4 * cfg.k):
            if candidate.recipe_set not in seen and candidate.recipe_set not in picks:
                picks.append(candidate.recipe_set)
            if len(picks) >= cfg.k - cfg.explore_samples:
                break
        attempts = 0
        while len(picks) < cfg.k and attempts < 60:
            candidate = sample_decode(model, insight, rng, temperature=1.3)
            attempts += 1
            if candidate.recipe_set in seen or candidate.recipe_set in picks:
                continue
            picks.append(candidate.recipe_set)
        if not picks:
            raise TrainingError("online loop could not propose any new recipe set")
        return picks

    def _update(self, model, optimizer, insight, proposals, scores, observed, rng):
        """One update: margin-DPO over observed pairs + PPO on the batch."""
        cfg = self.config
        old_log_probs = [
            sequence_log_prob_value(model, insight, bits) for bits in proposals
        ]
        # --- margin-DPO on pairs drawn from everything observed so far.
        losses = []
        if len(observed) >= 2:
            count = min(cfg.dpo_pairs_per_update, len(observed) * 2)
            for _ in range(count):
                i, j = rng.integers(0, len(observed), size=2)
                (bits_i, score_i), (bits_j, score_j) = observed[int(i)], observed[int(j)]
                if abs(score_i - score_j) < 1e-6:
                    continue
                if score_i < score_j:
                    bits_i, bits_j = bits_j, bits_i
                    score_i, score_j = score_j, score_i
                gap = (
                    sequence_log_prob(model, insight, bits_i)
                    - sequence_log_prob(model, insight, bits_j)
                )
                margin = cfg.lam * (score_i - score_j)
                losses.append((Tensor(np.array(margin)) - gap).clip_min(0.0))
        # --- PPO on the current batch.
        if cfg.ppo_weight > 0 and len(proposals) >= 2:
            advantages = advantages_from_scores(scores)
            for bits, old_lp, adv in zip(proposals, old_log_probs, advantages):
                losses.append(
                    ppo_loss(model, insight, bits, old_lp, float(adv),
                             clip_epsilon=cfg.ppo_clip) * cfg.ppo_weight
                )
        if not losses:
            return
        total = losses[0]
        for item in losses[1:]:
            total = total + item
        loss = total / float(len(losses))
        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(model.parameters(), cfg.grad_clip)
        optimizer.step()

    def _record(
        self, iteration, proposals, qors, scores, observed, best_qor
    ) -> IterationRecord:
        # ``observed`` / ``best_qor`` can be empty when every evaluation so
        # far failed; report NaN rather than aborting the whole run.
        all_scores = np.array([s for _, s in observed])
        if all_scores.size:
            best_so_far = float(all_scores.max())
            avg_top5 = float(np.sort(all_scores)[-5:].mean())
        else:
            best_so_far = float("nan")
            avg_top5 = float("nan")
        return IterationRecord(
            iteration=iteration,
            recipe_sets=list(proposals),
            qors=qors,
            scores=scores,
            best_score_so_far=best_so_far,
            avg_top5_so_far=avg_top5,
            best_power_so_far=(
                float(best_qor["power_mw"]) if best_qor else float("nan")
            ),
            best_tns_so_far=(
                float(best_qor["tns_ns"]) if best_qor else float("nan")
            ),
        )
