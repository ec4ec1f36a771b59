"""The distributed learner: the online loop over an elastic actor pool.

:class:`DistributedOnlineFineTuner` subclasses the serial
:class:`~repro.core.online.OnlineFineTuner` and replaces *where flows
run*, never *what the loop computes*:

**Sync mode** inherits the serial ``run()`` wholesale — proposing, the
margin-DPO + PPO update, insight refresh, records and checkpoints all
stay learner-side, in the serial order — and overrides only
``_evaluate``: each iteration's K proposals are dispatched over the actor
pool and reassembled by batch index.  Because actors key per-job
randomness on that index (``evaluate_at``), and a lost task is re-issued
with an incremented dispatch count that perturbs only fault streams, the
trajectory is **bit-identical to the serial loop at any actor count —
checkpoint bytes included** (arriving QoR dicts are re-keyed with the
interned literals so pickle's memo layout matches the in-process run;
see :func:`repro.runtime.checkpoint.intern_keys`).

**Async mode** runs a version-stamped experience loop: actors hold a
policy replica, propose with ``(seed, task id, dispatch)``-keyed
sampling, evaluate, and stream experience records back; the learner folds
arrival-ordered batches of K through the *same* update body the serial
loop uses (:meth:`OnlineFineTuner._absorb`), bumps the policy version,
and broadcasts fresh weights.  Records older than ``max_policy_lag``
versions are dropped (counted) and their proposal slot re-issued, so
model updates never consume arbitrarily stale experience.

Elastic membership in both modes: the actors are members of a
:class:`~repro.runtime.supervisor.SupervisedPool`, which the learner
drives directly.  Actor death is absorbed by respawn under
``max_actor_respawns`` — the lost task re-dispatched with ``dispatch +
1`` — and past the budget the learner degrades to supervised in-process
execution (or raises :class:`~repro.errors.WorkerPoolError` when
``degrade_to_serial`` is off).  No experience record is ever lost to a
death: a record sent before the kill is drained from the dead actor's
pipe, and anything in flight is re-issued.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.online import OnlineFineTuner, OnlineResult, _LoopState
from repro.core.qor import QoRIntention
from repro.errors import TrainingError, WorkerPoolError
from repro.insights.extractor import InsightExtractor
from repro.netlist.profiles import get_profile
from repro.nn.optim import Adam
from repro.observability import get_registry, get_tracer
from repro.runtime.checkpoint import intern_keys
from repro.runtime.session import FlowJob
from repro.runtime.supervisor import Death, SupervisedPool
from repro.utils.rng import derive_rng

from repro.distributed.actor import ActorSpec, _actor_main, propose_one
from repro.distributed.experience import ExperienceQueue, ExperienceRecord

#: Task-id stride between sync iterations (keeps ids globally unique
#: without the learner tracking a counter through the inherited loop).
_SYNC_STRIDE = 1 << 20


class DistributedOnlineFineTuner(OnlineFineTuner):
    """Actor/learner execution of the online fine-tuning loop.

    Args:
        config: An :class:`~repro.core.online.OnlineConfig` whose
            ``distributed`` field carries the validated
            :class:`~repro.distributed.config.DistributedConfig`.
        flow_fn: Tool invocation override; must be picklable (module
            level) — it ships to every actor process.
    """

    def __init__(self, config, flow_fn=None) -> None:
        if config.distributed is None:
            raise TrainingError(
                "DistributedOnlineFineTuner needs config.distributed "
                "(a repro.distributed.DistributedConfig); for the "
                "in-process loop use OnlineFineTuner"
            )
        super().__init__(config, flow_fn=flow_fn)
        self.dist = config.distributed
        self._pool: Optional[SupervisedPool] = None
        self._spec: Optional[ActorSpec] = None
        self._queue = ExperienceQueue()
        self._sync_state: Optional[tuple] = None
        self._local_only = False
        self._pool_spawned = 0
        self._pool_restarts = 0
        self._records_total = 0
        self._reissued = 0
        self._dropped = 0
        self._broadcasts = 0

    # ------------------------------------------------------------------
    def actor_stats(self) -> Dict[str, object]:
        """Membership and experience-stream counters for this run."""
        out: Dict[str, object] = {
            "mode": self.dist.mode,
            "actors": self.dist.actors,
            "actors_live": (
                self._pool.live_count() if self._pool is not None else 0
            ),
            "spawned": self._pool_spawned,
            "restarts": self._pool_restarts,
            "records_total": self._records_total,
            "reissued": self._reissued,
            "dropped_stale": self._dropped,
            "broadcasts": self._broadcasts,
            "degraded": self._local_only,
        }
        return out

    def close(self) -> None:
        self._shutdown_pool()
        super().close()

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool_spawned = self._pool.spawns
            self._pool_restarts = self._pool.respawns
            self._pool.shutdown()
            self._pool = None

    # ------------------------------------------------------------------
    def run(
        self,
        model,
        dataset,
        design: str,
        intention: QoRIntention = QoRIntention(),
        verbose: bool = False,
    ) -> OnlineResult:
        dist = self.dist
        tracer = get_tracer()
        with tracer.span(
            "online.learner",
            mode=dist.mode,
            actors=dist.actors,
            design=str(design),
        ):
            try:
                if dist.mode == "async":
                    return self._run_async(
                        model, dataset, design, intention, verbose
                    )
                self._spec = self._make_spec(design, dataset.seed)
                return super().run(model, dataset, design, intention,
                                   verbose)
            finally:
                self._shutdown_pool()

    def _make_spec(self, design, dataset_seed: int,
                   model_shape: Optional[Tuple[int, int, int]] = None
                   ) -> ActorSpec:
        # Actors evaluate one job at a time in-process (workers=1) and
        # trace-quiet (concurrent writers would interleave the JSONL
        # trace); everything else — policy, deadlines, cache, fault plan,
        # seed — is the learner's own runtime, so per-index streams match
        # the serial loop exactly.
        runtime = self.config.resolved_runtime().replace(
            workers=1, trace=False
        )
        return ActorSpec(
            runtime=runtime,
            design=str(design),
            dataset_seed=dataset_seed,
            base_seed=self.config.seed,
            flow_fn=self._flow_fn,
            model_shape=model_shape,
            kill_rate=self.dist.kill_rate,
            kill_seed=self.dist.kill_seed,
        )

    def _ensure_pool(self) -> Optional[SupervisedPool]:
        if self._local_only:
            return None
        if self._pool is None:
            spec = self._spec
            self._pool = SupervisedPool(
                _actor_main,
                lambda: (spec,),
                size=self.dist.actors,
                max_respawns=self.dist.max_actor_respawns,
                gauge="online_actors_live",
                gauge_help="live online-loop actor processes",
                on_spawn=self._push_sync_state,
            )
        return self._pool

    def _push_sync_state(self, member) -> None:
        """Seed a (re)spawned actor with the latest broadcast state —
        its FIFO command queue guarantees the sync lands before any
        task dispatched afterwards."""
        if self._sync_state is not None:
            member.send(("sync",) + self._sync_state)

    @staticmethod
    def _lost_commands(deaths: List[Death]) -> List[tuple]:
        """Count each respawn; return the dead actors' in-flight
        commands, which the caller re-issues."""
        lost = []
        for death in deaths:
            if death.replacement is not None:
                get_registry().counter(
                    "online_actor_restarts_total",
                    "actor processes respawned after death",
                ).inc()
            if death.member.inflight is not None:
                lost.append(death.member.inflight)
        return lost

    def _degrade(self, unfinished: int) -> None:
        """Respawn budget is dry: fail fast or fall back in-process."""
        get_registry().counter(
            "online_pool_degraded_total",
            "actor pools that exhausted their respawn budget",
        ).inc()
        if not self.dist.degrade_to_serial:
            self._shutdown_pool()
            self._local_only = True
            raise WorkerPoolError(
                f"actor pool exhausted its respawn budget "
                f"({self.dist.max_actor_respawns}) and degrade_to_serial "
                f"is off; {unfinished} task(s) unfinished"
            )
        self._shutdown_pool()
        self._local_only = True

    # ------------------------------------------------------------------
    # Sync mode: the inherited serial loop, evaluation fanned out.
    # ------------------------------------------------------------------
    def _evaluate(self, design, params_list, seed, iteration=0):
        k = len(params_list)
        reports: List[Optional[object]] = [None] * k
        backlog: Deque[Tuple[int, int]] = deque(
            (index, 0) for index in range(k)
        )
        pending: Dict[int, Tuple[int, int]] = {}
        tracer = get_tracer()
        registry = get_registry()
        remaining = k
        pool = self._ensure_pool()
        while remaining:
            if pool is None:
                # Degraded (or budget-dry from a previous iteration):
                # finish through the learner's own session — same
                # index/dispatch keying, so outcomes are unchanged.
                while backlog:
                    index, dispatch = backlog.popleft()
                    if reports[index] is not None:
                        continue
                    reports[index] = self._session.evaluate_at(
                        FlowJob(design, params_list[index], seed),
                        index=index, dispatch=dispatch,
                    )
                    remaining -= 1
                break
            for member in pool.idle():
                if not backlog:
                    break
                index, dispatch = backlog.popleft()
                task_id = iteration * _SYNC_STRIDE + index
                pending[task_id] = (index, dispatch)
                pool.dispatch(member, (
                    "evaluate", task_id, index, None,
                    params_list[index], dispatch,
                ))
            answers, deaths = pool.poll()
            for _, record in answers:
                self._queue.push(record)
            while self._queue:
                record = self._queue.pop()
                info = pending.pop(record.task_id, None)
                if info is None:
                    continue  # task already recovered elsewhere
                index, dispatch = info
                with tracer.span(
                    "online.actor",
                    actor=record.actor_id,
                    task=record.task_id,
                    dispatch=record.dispatch,
                ):
                    report = record.report
                    if report.ok:
                        # Pipe transit broke key-string sharing; restore
                        # the canonical objects so checkpoint bytes match
                        # the serial run.
                        intern_keys(report.result.qor)
                    reports[index] = report
                    remaining -= 1
                    self._records_total += 1
            for command in self._lost_commands(deaths):
                info = pending.pop(command[1], None)
                if info is None:
                    continue
                index, dispatch = info
                self._reissued += 1
                registry.counter(
                    "online_experience_reissued_total",
                    "proposals re-issued after their actor died",
                ).inc()
                backlog.appendleft((index, dispatch + 1))
            if pool.degraded:
                # Recover everything still outstanding; re-running a
                # task in-process with the same (index, dispatch) yields
                # the identical report a surviving actor would have sent.
                for index, dispatch in pending.values():
                    backlog.appendleft((index, dispatch))
                pending.clear()
                self._degrade(remaining)
                pool = None
        return reports

    # ------------------------------------------------------------------
    # Async mode: version-stamped experience loop with bounded staleness.
    # ------------------------------------------------------------------
    def _run_async(self, model, dataset, design, intention,
                   verbose) -> OnlineResult:
        cfg = self.config
        dist = self.dist
        if cfg.min_successes < 0:
            raise TrainingError(
                f"min_successes must be >= 0, got {cfg.min_successes}"
            )
        if cfg.checkpoint_every < 1:
            raise TrainingError(
                f"checkpoint_every must be >= 1, got {cfg.checkpoint_every}"
            )
        rng = derive_rng(cfg.seed, "online", design)
        extractor = InsightExtractor()
        profile = get_profile(design)
        normalizer = dataset.normalizer_for(design, intention)
        insight = dataset.insight_for(design).copy()
        optimizer = Adam(model.parameters(), lr=cfg.learning_rate)
        observed: List[Tuple[Tuple[int, ...], float]] = []
        seen: set = set()
        result = OnlineResult(design=design)
        best_overall: Tuple[float, Optional[Dict[str, float]]] = (
            -np.inf, None,
        )
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
        self._spec = self._make_spec(
            design, dataset.seed,
            model_shape=(model.n_recipes, model.dim, model.insight_dims),
        )
        version = start_iteration
        self._set_sync_state(version, model, state)
        tracer = get_tracer()
        registry = get_registry()
        lag_gauge = registry.gauge(
            "online_policy_lag",
            "staleness (in versions) of the last consumed record",
        )
        iteration = start_iteration
        next_task = start_iteration * cfg.k
        window = dist.window(cfg.k)
        backlog: Deque[Tuple[int, int]] = deque()
        pending: Dict[int, int] = {}
        buffer: List[ExperienceRecord] = []

        with tracer.span(
            "online.run",
            design=design,
            iterations=cfg.iterations,
            k=cfg.k,
            seed=cfg.seed,
        ):
            while iteration < cfg.iterations:
                needed = (cfg.iterations - iteration) * cfg.k - len(buffer)
                pool = self._ensure_pool()
                if pool is not None:
                    for member in pool.idle():
                        if len(pending) >= min(window, needed):
                            break
                        if backlog:
                            task_id, dispatch = backlog.popleft()
                        else:
                            task_id, dispatch = next_task, 0
                            next_task += 1
                        pending[task_id] = dispatch
                        pool.dispatch(
                            member, ("propose", task_id, dispatch)
                        )
                    answers, deaths = pool.poll()
                    for _, record in answers:
                        if record.task_id not in pending:
                            continue
                        del pending[record.task_id]
                        with tracer.span(
                            "online.actor",
                            actor=record.actor_id,
                            task=record.task_id,
                            dispatch=record.dispatch,
                            version=record.policy_version,
                        ):
                            self._queue.push(record)
                    for command in self._lost_commands(deaths):
                        dispatch = pending.pop(command[1], None)
                        if dispatch is None:
                            continue
                        self._reissued += 1
                        registry.counter(
                            "online_experience_reissued_total",
                            "proposals re-issued after their actor died",
                        ).inc()
                        backlog.appendleft((command[1], dispatch + 1))
                    if pool.degraded:
                        for task_id, dispatch in pending.items():
                            backlog.appendleft((task_id, dispatch))
                        pending.clear()
                        self._degrade(needed)
                        pool = None
                if pool is None:
                    # In-process fallback: same task keying, the
                    # learner's current replica proposing.
                    while len(buffer) + len(self._queue) < cfg.k:
                        if backlog:
                            task_id, dispatch = backlog.popleft()
                        else:
                            task_id, dispatch = next_task, 0
                            next_task += 1
                        self._queue.push(self._produce_local(
                            state, dataset.seed, buffer, task_id,
                            dispatch, version,
                        ))
                while self._queue:
                    record = self._queue.pop()
                    self._records_total += 1
                    lag = version - record.policy_version
                    lag_gauge.set(max(lag, 0))
                    if lag > dist.max_policy_lag:
                        # Too stale to learn from: drop it, spend a fresh
                        # proposal slot instead.
                        self._dropped += 1
                        registry.counter(
                            "online_experience_dropped_total",
                            "experience dropped for exceeding "
                            "max_policy_lag",
                        ).inc()
                        backlog.append((next_task, 0))
                        next_task += 1
                        continue
                    if record.report.ok:
                        intern_keys(record.report.result.qor)
                    buffer.append(record)
                while len(buffer) >= cfg.k and iteration < cfg.iterations:
                    batch = buffer[:cfg.k]
                    del buffer[:cfg.k]
                    with tracer.span(
                        "online.iteration", iteration=iteration
                    ) as iter_span:
                        record = self._absorb(
                            state, iteration,
                            [r.recipe_set for r in batch],
                            [r.report for r in batch],
                        )
                        iter_span.set_attributes(
                            survivors=len(record.recipe_sets),
                            failures=len(record.failures),
                            updated=record.updated,
                            best_score=record.best_score_so_far,
                        )
                    iteration += 1
                    version += 1
                    self._set_sync_state(version, model, state)
                    if self._pool is not None:
                        self._broadcasts += self._pool.broadcast(
                            ("sync",) + self._sync_state
                        )
                        registry.counter(
                            "online_weight_broadcasts_total",
                            "policy-version broadcasts to actors",
                        ).inc()
        result.model = model
        return result

    def _set_sync_state(self, version: int, model,
                        state: _LoopState) -> None:
        self._sync_state = (
            version,
            model.state_dict(),
            np.asarray(state.insight).copy(),
            sorted(state.seen),
        )

    def _produce_local(self, state: _LoopState, dataset_seed: int,
                       buffer: List[ExperienceRecord], task_id: int,
                       dispatch: int, version: int) -> ExperienceRecord:
        """One degraded-mode experience record, produced in-process with
        the same ``(task id, dispatch)`` keying an actor would use."""
        from repro.recipes.apply import apply_recipe_set
        from repro.recipes.catalog import default_catalog

        seen = state.seen | {rec.recipe_set for rec in buffer}
        bits = propose_one(
            state.model, state.insight, seen, self.config.seed,
            task_id, dispatch,
        )
        params = apply_recipe_set(list(bits), default_catalog())
        report = self._session.evaluate_at(
            FlowJob(state.design, params, dataset_seed),
            index=task_id, dispatch=dispatch,
        )
        return ExperienceRecord(
            task_id=task_id, actor_id=-1, dispatch=dispatch,
            policy_version=version, recipe_set=bits, report=report,
            insight=np.asarray(state.insight).copy(),
        )


def fine_tuner_for(config, flow_fn=None, executor=None) -> OnlineFineTuner:
    """The right tuner for ``config``: distributed when
    ``config.distributed`` is set, the in-process serial loop otherwise."""
    if config.distributed is not None:
        if executor is not None:
            raise TrainingError(
                "an injected executor cannot cross actor processes; "
                "drop executor= or config.distributed"
            )
        return DistributedOnlineFineTuner(config, flow_fn=flow_fn)
    return OnlineFineTuner(config, executor=executor, flow_fn=flow_fn)
