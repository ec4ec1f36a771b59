"""Actor processes of the distributed online loop.

One **actor** owns a :class:`~repro.runtime.session.FlowSession` and
serves tasks from a private command queue: ``evaluate`` a recipe set the
learner proposed (sync mode), or ``propose`` one itself against its local
policy replica and then evaluate it (async mode).  Every completion is
one synchronous send of an :class:`~repro.distributed.experience.
ExperienceRecord` over a result pipe private to that actor.  Actors are
members of a :class:`~repro.runtime.supervisor.SupervisedPool`, which
the learner drives directly: the pool owns the channels, death
detection, respawn budget, chaos draw and shutdown.

Determinism is carried by the task, not the process: per-job randomness
keys on the learner-assigned global task index
(:meth:`FlowSession.evaluate_at`), and async proposal sampling keys on
``(base seed, task id, dispatch)`` — whichever actor serves a task, alive
or respawned, produces the same record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.observability.trace import Tracer, set_tracer
from repro.runtime.session import FlowJob, FlowSession, RuntimeConfig
from repro.runtime.supervisor import Chaos, RemoteError
from repro.utils.rng import derive_rng

from repro.distributed.experience import ExperienceRecord

#: Exit code of a chaos-killed actor (distinct from real crashes).
KILL_EXIT_CODE = 17

#: Sampling temperature of async actor proposals (the serial loop's
#: exploration temperature — see ``OnlineFineTuner._propose``).
PROPOSE_TEMPERATURE = 1.3

#: Bound on rejection-sampling attempts when deduplicating a proposal
#: against the already-seen set (mirrors the serial loop's bound).
PROPOSE_ATTEMPTS = 60


@dataclass(frozen=True)
class ActorSpec:
    """Everything an actor process needs, all picklable.

    ``model_shape`` is ``(n_recipes, dim, insight_dims)`` for async
    actors, which hold a policy replica to propose with; ``None`` for
    sync actors, which only evaluate what the learner sends.
    """

    runtime: RuntimeConfig
    design: str
    dataset_seed: int
    base_seed: int
    flow_fn: Optional[Callable] = None
    model_shape: Optional[Tuple[int, int, int]] = None
    kill_rate: float = 0.0
    kill_seed: int = 0


def propose_one(model, insight, seen, base_seed: int, task_id: int,
                dispatch: int) -> Tuple[int, ...]:
    """Sample one recipe set for global proposal ``task_id``.

    Keyed by ``(base_seed, task_id, dispatch)`` — not by call order or
    process — so a re-issued task samples a fresh proposal and a
    respawned actor reproduces exactly what its predecessor would have.
    Used identically by async actors and by the learner's degraded
    in-process path.  Rejection-samples against ``seen`` up to the serial
    loop's attempt bound, then accepts a duplicate rather than spin.
    """
    from repro.core.beam import sample_decode

    rng = derive_rng(base_seed, "online-actor", int(task_id), int(dispatch))
    bits: Tuple[int, ...] = ()
    for _ in range(PROPOSE_ATTEMPTS):
        bits = sample_decode(
            model, insight, rng, temperature=PROPOSE_TEMPERATURE
        ).recipe_set
        if bits not in seen:
            return bits
    return bits


def _actor_main(actor_id: int, spawn: int, task_queue, result_conn,
                spec: ActorSpec) -> None:
    """Main of one actor process.

    Serves commands until the ``None`` sentinel:

    - ``("evaluate", task_id, index, bits, params, dispatch)`` — run the
      flow at batch position ``index`` and send the record (sync mode).
    - ``("propose", task_id, dispatch)`` — sample a recipe set from the
      local replica, evaluate it at global index ``task_id``, send the
      record (async mode).
    - ``("sync", version, model_state, insight, seen)`` — install new
      weights/insight/dedup state broadcast by the learner.

    Runs trace-quiet (several processes appending to one JSONL trace
    would interleave); the learner emits the ``online.actor`` spans.
    Chaos rehearsal: with ``kill_rate`` set, each work command first
    draws from a ``(kill_seed, "actor-kill", actor_id, spawn)`` stream and
    may ``os._exit`` — the hard, mid-task death the supervised pool
    exists to absorb.
    """
    set_tracer(Tracer(exporter=None, enabled=False))
    chaos = Chaos(spec.kill_rate, spec.kill_seed, "actor-kill", actor_id,
                  spawn, KILL_EXIT_CODE)
    session = FlowSession(spec.runtime, flow_fn=spec.flow_fn)
    model = None
    insight: Optional[np.ndarray] = None
    version = 0
    seen: set = set()
    if spec.model_shape is not None:
        from repro.core.model import InsightAlignModel

        n_recipes, dim, insight_dims = spec.model_shape
        model = InsightAlignModel(
            n_recipes=n_recipes, dim=dim, insight_dims=insight_dims, seed=0
        )
    try:
        while True:
            command = task_queue.get()
            if command is None:
                return
            kind = command[0]
            if kind == "sync":
                _, version, model_state, new_insight, seen_list = command
                if model is not None and model_state is not None:
                    model.load_state_dict(model_state)
                if new_insight is not None:
                    insight = np.asarray(new_insight)
                seen = set(seen_list)
                continue
            chaos.strike()
            try:
                if kind == "evaluate":
                    _, task_id, index, bits, params, dispatch = command
                    report = session.evaluate_at(
                        FlowJob(spec.design, params, spec.dataset_seed),
                        index=index, dispatch=dispatch,
                    )
                    record = ExperienceRecord(
                        task_id=task_id, actor_id=actor_id,
                        dispatch=dispatch, policy_version=version,
                        recipe_set=bits, report=report,
                    )
                elif kind == "propose":
                    _, task_id, dispatch = command
                    from repro.recipes.apply import apply_recipe_set
                    from repro.recipes.catalog import default_catalog

                    bits = propose_one(
                        model, insight, seen, spec.base_seed,
                        task_id, dispatch,
                    )
                    params = apply_recipe_set(list(bits), default_catalog())
                    report = session.evaluate_at(
                        FlowJob(spec.design, params, spec.dataset_seed),
                        index=task_id, dispatch=dispatch,
                    )
                    record = ExperienceRecord(
                        task_id=task_id, actor_id=actor_id,
                        dispatch=dispatch, policy_version=version,
                        recipe_set=bits, report=report,
                        insight=None if insight is None else insight.copy(),
                    )
                else:
                    raise ValueError(f"unknown actor command {kind!r}")
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as err:  # noqa: BLE001 - shipped to learner
                result_conn.send(RemoteError(err))
                continue
            result_conn.send(record)
    finally:
        session.close()
