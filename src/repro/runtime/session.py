"""The flow-evaluation runtime: ``RuntimeConfig`` + ``FlowSession``.

Four subsystems grew around the simulated P&R invocation — supervised
execution (:mod:`repro.runtime.executor`), the process-level supervisor
(:mod:`repro.runtime.supervisor`), seeded fault injection
(:mod:`repro.runtime.faults`) and the persistent QoR cache
(:mod:`repro.runtime.cache`) — plus tracing/metrics
(:mod:`repro.observability`).  :class:`FlowSession` is the one place they
compose: it owns the executor policy (deadlines, bounded retries,
backoff), the worker pool, the QoR cache and the fault plan — all
declared up front in a typed, validated :class:`RuntimeConfig` — and
exposes a batch-first API:

``session.evaluate(jobs, first_index=0)``
    Supervised batch; one :class:`FlowOutcome` per job, in submission
    order, tool failures captured (never raised).  Job ``i`` runs as
    global index ``first_index + i``.

``session.evaluate_strict(jobs)``
    All-or-nothing batch; :class:`~repro.flow.result.FlowResult` per job
    or the first failed job's typed :class:`~repro.errors.FlowError`.

``session.evaluate_at(job, index)``
    One job evaluated exactly as global index ``index`` — the
    distributed actors' door.

What the session guarantees:

- **Determinism regardless of worker count or completion order.**  Every
  per-job randomness source (retry jitter, injected faults) is derived
  from the job's *global index*, never from call order, so a batch
  returns bit-identical :class:`~repro.flow.result.FlowResult`\\ s whether
  it runs on 1, 2 or 8 workers — including under a seeded
  :class:`~repro.runtime.parallel.FaultPlan` — and a caller that
  evaluates a sequence batch by batch (the online loop) gives every job
  its own streams.  Results come back in submission order, and
  compatible jobs (one design profile, one netlist seed) run as lanes of
  one stacked ``run_flow_batch`` call.
- **Process-level fault tolerance.**  With ``workers > 1`` the jobs run on
  members of a :class:`~repro.runtime.supervisor.SupervisedPool`, which
  detects worker death, respawns workers under the ``max_respawns``
  budget and hands the lost job back.  The session adds the flow policy:
  one in-flight job per worker tagged with the batch epoch, stacked
  ``_JobGroup`` dispatch, and re-dispatch of a lost job.  A job that kills
  its worker more than ``poison_retries`` times is quarantined as a typed
  :class:`~repro.errors.WorkerCrash` report; a job that wedges past
  ``watchdog_s`` wall-clock seconds gets its worker killed and surfaces as
  a typed :class:`~repro.errors.FlowTimeout`; and once no worker is left
  the session degrades to supervised in-process serial execution (or
  raises :class:`~repro.errors.WorkerPoolError` when ``degrade_to_serial``
  is off).  Re-dispatch seeds are keyed by ``(job index, dispatch
  count)``, so a re-dispatched job reproduces the serial run bit-for-bit.

``workers=1`` (the default everywhere) runs the same per-job machinery
in-process: no pool, no pickling constraints, byte-for-byte the results the
pool produces — including the poison/watchdog accounting, driven by
:class:`~repro.runtime.faults.SimulatedWorkerDeath` instead of real process
death.  ``tests/test_session_equivalence.py`` holds the session to the
pre-session code paths.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import (
    CorruptQoR,
    FlowTimeout,
    ReproError,
    RuntimeConfigError,
    WorkerCrash,
    WorkerPoolError,
)
from repro.flow.result import FlowResult
from repro.observability import get_registry, get_tracer, new_lock
from repro.runtime.cache import QoRCache
from repro.runtime.clock import VirtualClock
from repro.runtime.executor import (
    FlowAttempt,
    FlowExecutor,
    FlowRunReport,
    RetryPolicy,
)
from repro.runtime.faults import (
    FaultInjector,
    SimulatedWorkerDeath,
    mark_pool_worker,
)
from repro.runtime.parallel import DEFAULT_BATCH_SIZE, FaultPlan, FlowJob
from repro.runtime.supervisor import (
    SHUTDOWN_S,
    START_METHOD,
    RemoteError,
    SupervisedPool,
)

# The session's batch outcome type IS the executor's run report — one
# name, one pickle layout, so cached entries and checkpoints written
# before the session layer existed stay readable after it.
FlowOutcome = FlowRunReport


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything a :class:`FlowSession` composes, validated up front.

    Replaces the ``workers=`` / ``qor_cache_path=`` / ``processes=``
    keyword plumbing that used to be repeated (slightly differently) at
    every flow call site.  Invalid values raise a typed
    :class:`~repro.errors.RuntimeConfigError` at construction time, before
    any flow runs; the session reads its knobs from here and checks them
    nowhere else.

    Args:
        workers: Process count for batch evaluation.  ``1`` (default)
            runs in-process — same per-job supervision, no pool.
        qor_cache_path: Directory for the persistent
            :class:`~repro.runtime.cache.QoRCache`; ``None`` disables
            caching.  Ignored (never silently — see :class:`FlowSession`)
            while a ``fault_plan`` is active.
        policy: Per-job retry/backoff schedule.
        deadline_s: Per-attempt wall-clock budget (``None`` = unlimited).
        min_snapshots: Reject results with fewer stage snapshots as
            :class:`~repro.errors.CorruptQoR` (``None`` = no floor).
        seed: Base seed for per-job jitter/fault streams (job identity —
            which netlist is built — comes from each job's own ``seed``).
        fault_plan: Optional seeded
            :class:`~repro.runtime.parallel.FaultPlan` rehearsing
            failures with a job-index-keyed schedule.
        max_respawns: Worker deaths the supervised pool absorbs (each one
            respawning a warm replacement worker) before it stops
            replacing workers and degrades.
        poison_retries: Times a job whose worker died is re-dispatched
            before being quarantined as a typed
            :class:`~repro.errors.WorkerCrash` report.
        watchdog_s: Wall-clock budget per dispatched job; a worker
            holding one longer is killed and the job surfaces as a typed
            :class:`~repro.errors.FlowTimeout` (``None`` disables).
        degrade_to_serial: Finish batches in-process when the pool cannot
            keep workers alive (default) instead of raising
            :class:`~repro.errors.WorkerPoolError` — for that batch and
            every later one.
        batch_size: Most lanes per stacked (array-vectorized) flow
            evaluation, default 16.  Jobs sharing a design profile and
            netlist seed run as lanes of one ``run_flow_batch`` call per
            worker dispatch (at most ``ceil(n / workers)`` for ``n``
            pending jobs, so a small batch still reaches every worker).
            Width is 1 — each job on its own, still through the batch
            kernels — under a ``fault_plan``, ``deadline_s`` or
            ``watchdog_s`` (per-job policies) and for a custom
            ``flow_fn``.  Results are bit-identical at any width.
    """

    workers: int = 1
    qor_cache_path: Optional[Union[str, os.PathLike]] = None
    policy: RetryPolicy = RetryPolicy()
    deadline_s: Optional[float] = None
    min_snapshots: Optional[int] = None
    seed: int = 0
    fault_plan: Optional[FaultPlan] = None
    max_respawns: int = 8
    poison_retries: int = 1
    watchdog_s: Optional[float] = None
    degrade_to_serial: bool = True
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        for name, least in (("workers", 1), ("max_respawns", 0),
                            ("poison_retries", 0), ("batch_size", 1)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= least):
                raise RuntimeConfigError(
                    f"{name} must be an int >= {least}, got {value!r}"
                )
        if not _is_int(self.seed):
            raise RuntimeConfigError(f"seed must be an int, got {self.seed!r}")
        if self.min_snapshots is not None and not (
            _is_int(self.min_snapshots) and self.min_snapshots >= 0
        ):
            raise RuntimeConfigError(
                f"min_snapshots must be a non-negative int or None, "
                f"got {self.min_snapshots!r}"
            )
        for name in ("deadline_s", "watchdog_s"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, numbers.Real)
                and not isinstance(value, bool) and value > 0
            ):
                raise RuntimeConfigError(
                    f"{name} must be a positive number or None, "
                    f"got {value!r}"
                )
        if self.qor_cache_path is not None and not (
            isinstance(self.qor_cache_path, (str, os.PathLike))
            and os.fspath(self.qor_cache_path)
        ):
            raise RuntimeConfigError(
                f"qor_cache_path must be a non-empty path or None, "
                f"got {self.qor_cache_path!r}"
            )
        if not isinstance(self.policy, RetryPolicy):
            raise RuntimeConfigError(
                f"policy must be a RetryPolicy, got "
                f"{type(self.policy).__name__}"
            )
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise RuntimeConfigError(
                f"fault_plan must be a FaultPlan or None, got "
                f"{type(self.fault_plan).__name__}"
            )
        if not isinstance(self.degrade_to_serial, bool):
            raise RuntimeConfigError(
                f"degrade_to_serial must be a bool, got "
                f"{type(self.degrade_to_serial).__name__}"
            )

    def replace(self, **overrides) -> "RuntimeConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)


# ----------------------------------------------------------------------
# Per-job machinery, module-level so pool workers can unpickle it under
# any start method.  Workers receive the session's (config, flow_fn).
# ----------------------------------------------------------------------
def _job_stream_seed(base: int, index: int) -> int:
    """Deterministic per-job seed: a pure function of (base seed, job index).

    Job-index keying — not call-order keying — is what makes a parallel
    batch reproducible at any worker count: job ``i`` draws the same jitter
    and fault schedule no matter which worker runs it or when.
    """
    acc = 1469598103934665603
    for part in (int(base) & 0xFFFFFFFFFFFFFFFF, int(index)):
        for _ in range(8):
            acc = ((acc ^ (part & 0xFF)) * 1099511628211) % (1 << 64)
            part >>= 8
    return acc


def _coerce(job) -> FlowJob:
    if isinstance(job, FlowJob):
        return job
    if isinstance(job, tuple):
        return FlowJob(*job)
    raise TypeError(f"expected FlowJob or tuple, got {type(job).__name__}")


@dataclass(frozen=True)
class _JobGroup:
    """A stack of compatible jobs dispatched as one batched evaluation.

    Members share a (profile, seed) pair — one pristine netlist — and
    differ only in parameters, so ``run_flow_batch`` can evaluate them as
    lanes of one compiled design.  The group travels through the supervisor
    as a single task keyed by its first member's index.
    """

    jobs: Tuple[Tuple[int, FlowJob], ...]

    def __len__(self) -> int:
        return len(self.jobs)


class _GroupResult:
    """Envelope for a batched dispatch: one report per member job, plus
    the stacked kernels' counters — lane/frozen steps and placement twins
    — so they are observable even when the group ran inside a pool
    worker."""

    __slots__ = ("reports", "stats")

    def __init__(self, reports: List[Tuple[int, FlowRunReport]],
                 stats: Optional[Dict[str, int]] = None) -> None:
        self.reports = reports
        self.stats = stats or {}

    # Each lane crosses the result pipe as its own pickle, so after the
    # trip it shares no objects with its lane mates — exactly like a job
    # sent alone.  Downstream pickles (checkpoints) therefore do not
    # depend on how the pool cut a batch into stacks.
    def __getstate__(self):
        lanes = [
            (index, pickle.dumps(report, pickle.HIGHEST_PROTOCOL))
            for index, report in self.reports
        ]
        return lanes, self.stats

    def __setstate__(self, state) -> None:
        lanes, self.stats = state
        self.reports = [
            (index, pickle.loads(blob)) for index, blob in lanes
        ]


def _execute_job(config: RuntimeConfig, flow_fn: Optional[Callable],
                 index: int, job: FlowJob,
                 dispatch: int = 0) -> FlowRunReport:
    """Run one supervised job, identically in-process or in a worker.

    ``flow_fn=None`` selects a width-1 stack of the batch engine.
    ``dispatch`` counts how many times this job's worker has already died
    (0 on first dispatch).  It feeds the fault-stream seed so a
    re-dispatched job draws a *fresh* schedule — a job that was killed by
    chance can survive its re-dispatch — while dispatch 0 reproduces the
    exact pre-supervision schedules.  Both the pool supervisor and the
    serial path key on the same ``(index, dispatch)`` pair, which is what
    makes re-dispatched results bit-identical to the workers=1 run.
    """
    if flow_fn is None:
        from repro.flow.batch_runner import run_flow_lane

        flow_fn = run_flow_lane
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep
    plan = config.fault_plan
    if plan is not None:
        virtual = VirtualClock()
        fault_seed = _job_stream_seed(plan.seed, index)
        if dispatch:
            fault_seed = _job_stream_seed(fault_seed, dispatch)
        injector = FaultInjector(
            rate=plan.rate,
            kinds=plan.kinds,
            seed=fault_seed,
            hang_s=plan.hang_s,
            stall_s=plan.stall_s,
            clock=virtual,
        )
        flow_fn = injector.wrap(flow_fn)
        clock = virtual
        sleep = virtual.sleep
    executor = FlowExecutor(
        flow_fn,
        policy=config.policy,
        deadline_s=config.deadline_s,
        min_snapshots=config.min_snapshots,
        clock=clock,
        sleep=sleep,
        seed=_job_stream_seed(config.seed, index),
    )
    return executor.try_execute(job.design, job.params, seed=job.seed)


def _execute_group(config: RuntimeConfig, group: _JobGroup,
                   dispatch: int = 0) -> _GroupResult:
    """Run one compatible job group through the stacked batch pipeline.

    The stack is one ``flow.stack`` span, and each member counts in
    ``flow_runs_total`` / ``flow_attempts_total`` exactly as one
    successful first attempt of :meth:`FlowExecutor.try_execute` would.
    On *any* failure inside the stacked evaluation the whole group is
    re-run job by job through the per-job supervision path, which
    deterministically reproduces the exact per-job outcome — including
    each member's typed error and retry schedule.  Success reports carry
    one zero-error attempt whose elapsed time is the group wall clock
    amortized over its lanes.
    """
    from repro.flow.batch_runner import run_flow_batch

    first = group.jobs[0][1]
    local: Dict[str, int] = {}
    with get_tracer().span(
        "flow.stack", design=str(first.design), seed=int(first.seed),
        width=len(group),
    ):
        start = time.monotonic()
        try:
            results = run_flow_batch(
                [(job.design, job.params, job.seed) for _, job in group.jobs],
                stats=local,
            )
            if config.min_snapshots is not None:
                for result in results:
                    if len(result.snapshots) < config.min_snapshots:
                        raise CorruptQoR(
                            f"flow run on {result.design} returned only "
                            f"{len(result.snapshots)} stage snapshots "
                            f"(expected >= {config.min_snapshots}): "
                            f"partial report"
                        )
        except (KeyboardInterrupt, SystemExit, SimulatedWorkerDeath):
            raise
        except Exception:  # noqa: BLE001 - per-job path reproduces outcomes
            return _GroupResult([
                (index, _execute_job(config, None, index, job, dispatch))
                for index, job in group.jobs
            ])
        elapsed = (time.monotonic() - start) / max(1, len(results))
    registry = get_registry()
    registry.counter("flow_attempts_total").inc(len(results))
    registry.counter("flow_runs_total").inc(len(results), status="ok")
    return _GroupResult([
        (index, FlowRunReport(
            design=str(job.design),
            result=result,
            attempts=[FlowAttempt(index=0, error=None, elapsed_s=elapsed)],
        ))
        for (index, job), result in zip(group.jobs, results)
    ], stats=local)


def _warm_netlists(warm: Sequence[Tuple[object, int]]) -> None:
    """Pre-seed the netlist cache with the pristine bytes and the compiled
    template of every ``(design, seed)`` in ``warm``; a design is a name
    or a :class:`~repro.netlist.profiles.DesignProfile`."""
    if not warm:
        return
    from repro.flow.runner import (
        design_template,
        netlist_cache_info,
        netlist_cache_limit,
    )

    # Warm the whole batch's working set even when it exceeds the
    # configured LRU cap; the cap (and eviction) is restored on exit even
    # if a profile lookup raises.
    with netlist_cache_limit(max(netlist_cache_info()["limit"], len(warm))):
        for design, seed in warm:
            try:
                design_template(design, seed)
            except ReproError:
                # Warming is an optimization, never a failure mode; an
                # unknown design will surface properly when its job runs.
                pass


def _supervised_worker(worker_id: int, spawn: int, task_queue, result_conn,
                       config: RuntimeConfig, flow_fn: Optional[Callable],
                       warm: Sequence[Tuple[object, int]]) -> None:
    """Main of one supervised pool worker.

    Marks the process as a pool worker (so ``WORKER_KILL`` faults die for
    real), warms its netlist cache, then serves ``(epoch, index, job,
    dispatch)`` tasks until the ``None`` shutdown sentinel arrives.  Each
    task is answered with one ``(epoch, index, payload)`` send, or a
    :class:`~repro.runtime.supervisor.RemoteError` for a non-flow
    exception.  A worker that dies mid-job simply never answers — exactly
    the signal the supervised pool watches for.
    """
    mark_pool_worker()
    _warm_netlists(warm)
    while True:
        task = task_queue.get()
        if task is None:
            return
        epoch, index, job, dispatch = task
        try:
            if isinstance(job, _JobGroup):
                payload: object = _execute_group(config, job, dispatch)
            else:
                payload = _execute_job(config, flow_fn, index, job, dispatch)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as err:  # noqa: BLE001 - shipped to the parent
            result_conn.send(RemoteError(err))
            continue
        result_conn.send((epoch, index, payload))


def _task_members(index: int, job) -> List[Tuple[int, FlowJob]]:
    """The logical (index, job) members of one dispatch unit."""
    if isinstance(job, _JobGroup):
        return list(job.jobs)
    return [(index, job)]


def _quarantine_report(job: FlowJob, kills: int) -> FlowRunReport:
    """The typed report for a poison job (killed its worker ``kills``
    times).  Built identically by the pool supervisor and the serial
    path, so quarantine outcomes are worker-count invariant."""
    error = WorkerCrash(
        f"flow job on {job.design} killed its worker {kills} time(s); "
        f"quarantined as poison"
    )
    return FlowRunReport(
        design=str(job.design),
        attempts=[FlowAttempt(index=kills - 1, error=error, elapsed_s=0.0)],
    )


def _watchdog_report(job: FlowJob, watchdog_s: float) -> FlowRunReport:
    """The typed report for a stalled job whose worker the watchdog shot.

    Deliberately carries the watchdog budget, not the measured wall time,
    so the serial and pool paths produce byte-identical reports."""
    error = FlowTimeout(
        f"flow job on {job.design} stalled past the {watchdog_s:.3g}s "
        f"supervision watchdog; worker killed and replaced"
    )
    return FlowRunReport(
        design=str(job.design),
        attempts=[FlowAttempt(index=0, error=error, elapsed_s=watchdog_s)],
    )


class FlowSession:
    """One handle over supervised, cached, concurrent flow evaluation.

    Args:
        config: The validated :class:`RuntimeConfig` to compose.
        flow_fn: Tool invocation override ``(design, params, seed=...) ->
            FlowResult``, run one job at a time; must be picklable when
            ``config.workers > 1``.  ``None`` (default) runs the built-in
            stacked engine: compatible jobs run as lanes of one
            ``run_flow_batch`` call and the rest as width-1 stacks
            (:func:`repro.flow.batch_runner.run_flow_lane`);
            ``flow_fn=run_flow`` selects the scalar reference
            (:func:`repro.flow.runner.run_flow`).  A custom flow owns its
            inputs: a pool started for one warms no netlist.
    """

    def __init__(
        self,
        config: RuntimeConfig = RuntimeConfig(),
        flow_fn: Optional[Callable] = None,
    ) -> None:
        if not isinstance(config, RuntimeConfig):
            raise RuntimeConfigError(
                f"config must be a RuntimeConfig, got "
                f"{type(config).__name__}"
            )
        self.config = config
        self._flow_fn = flow_fn
        #: The persistent QoR cache (``None`` when disabled).
        self.cache: Optional[QoRCache] = (
            None if config.qor_cache_path is None
            else QoRCache(config.qor_cache_path)
        )
        self._pool: Optional[SupervisedPool] = None
        self._epoch = 0
        self._counter_lock = new_lock()
        self.jobs_run = 0
        self.batches_run = 0
        self.worker_restarts = 0
        self.jobs_redispatched = 0
        self.poison_jobs = 0
        self.degraded = False
        self.batch_calls = 0
        self.batch_grouped_jobs = 0
        self.batch_max_width = 0
        self._batch_stats: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @property
    def _cache_enabled(self) -> bool:
        # A fault plan makes outcomes depend on the injector, not just the
        # (design, params, seed) key — never persist those as real QoR.
        return self.cache is not None and self.config.fault_plan is None

    @property
    def _batch_enabled(self) -> bool:
        """Whether stacked evaluation applies to this session's jobs.

        Fault injection, per-attempt deadlines and the dispatch watchdog
        are per-job policies, and a custom flow callable takes one job at
        a time; any of them runs every job on its own.
        """
        config = self.config
        return (
            config.batch_size > 1
            and self._flow_fn is None
            and config.fault_plan is None
            and config.deadline_s is None
            and config.watchdog_s is None
        )

    def _cached(self, job: FlowJob) -> Optional[FlowOutcome]:
        """The cache-hit outcome for ``job``, or ``None``."""
        if not self._cache_enabled:
            return None
        result = self.cache.get(job.design, job.params, job.seed)
        if result is None:
            return None
        return FlowRunReport(design=str(job.design), result=result,
                             cached=True)

    def _store(self, job: FlowJob, outcome: Optional[FlowOutcome]) -> None:
        if self._cache_enabled and outcome is not None and outcome.ok:
            self.cache.put(job.design, job.params, job.seed, outcome.result)

    def _plan_tasks(
        self, pending: Sequence[Tuple[int, FlowJob]]
    ) -> List[Tuple[int, object]]:
        """Fold compatible pending jobs into ``_JobGroup`` dispatch units.

        Jobs sharing a (profile, seed) pair — one pristine netlist — are
        stacked, in submission order, into groups of at most
        ``min(batch_size, ceil(n / workers))`` for ``n`` pending jobs, so
        a batch too small to fill the pool at full width still gives
        every worker a share; singletons stay per-job tasks.  Group tasks
        are keyed by their first member's index.
        """
        buckets: Dict[Tuple[str, int], List[Tuple[int, FlowJob]]] = {}
        for index, job in pending:
            name = getattr(job.design, "name", None) or str(job.design)
            buckets.setdefault((name, job.seed), []).append((index, job))
        width = min(self.config.batch_size,
                    math.ceil(len(pending) / self.config.workers))
        tasks: List[Tuple[int, object]] = []
        for members in buckets.values():
            for at in range(0, len(members), width):
                chunk = members[at:at + width]
                if len(chunk) == 1:
                    tasks.append(chunk[0])
                else:
                    tasks.append((chunk[0][0], _JobGroup(jobs=tuple(chunk))))
        tasks.sort(key=lambda task: task[0])
        widths = [
            len(job) for _, job in tasks if isinstance(job, _JobGroup)
        ]
        if widths:
            registry = get_registry()
            registry.counter("flow_batch_calls_total").inc(len(widths))
            registry.counter("flow_batch_jobs_total").inc(sum(widths))
            registry.gauge("flow_batch_width").set(max(widths))
            with self._counter_lock:
                self.batch_calls += len(widths)
                self.batch_grouped_jobs += sum(widths)
                self.batch_max_width = max(self.batch_max_width, max(widths))
        return tasks

    # ------------------------------------------------------------------
    def evaluate(self, jobs: Sequence,
                 first_index: int = 0) -> List[FlowOutcome]:
        """Supervised batch evaluation, outcomes in submission order.

        Accepts :class:`~repro.runtime.parallel.FlowJob`\\ s or
        ``(design, params, seed)`` tuples.  Job ``i`` runs as global
        index ``first_index + i``: it draws that index's retry-jitter and
        fault streams, exactly as ``evaluate_at(job, index=first_index +
        i)`` would.  Tool failures are captured in each outcome
        (``outcome.ok`` / ``outcome.error``); non-flow
        :class:`~repro.errors.ReproError`\\ s — configuration bugs — still
        propagate immediately, exactly as
        :meth:`FlowExecutor.try_execute` does.
        """
        jobs = [_coerce(job) for job in jobs]
        workers = self.config.workers
        registry = get_registry()
        with get_tracer().span(
            "flow.batch", jobs=len(jobs), workers=workers
        ) as batch_span:
            outcomes: List[Optional[FlowOutcome]] = [
                self._cached(job) for job in jobs
            ]
            pending = [
                (first_index + position, job)
                for position, job in enumerate(jobs)
                if outcomes[position] is None
            ]
            batch_span.set_attribute("cached", len(jobs) - len(pending))
            queue_depth = registry.gauge("flow_pool_queue_depth")
            try:
                if pending:
                    queue_depth.set(len(pending))
                    # A pool that degraded in an earlier batch stays
                    # down: without serial degradation nothing runs.
                    if self.degraded and not self.config.degrade_to_serial:
                        raise self._pool_exhausted(len(pending))
                    tasks = (
                        self._plan_tasks(pending) if self._batch_enabled
                        else list(pending)
                    )
                    if workers == 1 or self.degraded:
                        for index, outcome in self._run_serial(tasks):
                            outcomes[index - first_index] = outcome
                            queue_depth.dec()
                    else:
                        self._ensure_pool(jobs)
                        before = self._supervision_counters()
                        with get_tracer().span(
                            "flow.supervise", workers=workers,
                            jobs=len(pending),
                        ) as sup_span:
                            # Unordered completion + index reassembly:
                            # stragglers never stall finished results, and
                            # submission order is restored from the index,
                            # so completion order is unobservable.
                            for index, outcome in self._run_pool(tasks):
                                outcomes[index - first_index] = outcome
                                queue_depth.dec()
                            after = self._supervision_counters()
                            sup_span.set_attributes(**{
                                key: after[key] - before[key]
                                for key in before
                            }, degraded=self.degraded)
                    for index, job in pending:
                        self._store(job, outcomes[index - first_index])
            finally:
                # A batch leaves no residue: the gauge reads 0 between
                # batches (a fully-cached batch never touched it, and the
                # last in-batch decrement used to linger indefinitely).
                queue_depth.set(0)
            failed = sum(1 for o in outcomes if o is not None and not o.ok)
            batch_span.set_attribute("failed", failed)
            registry.counter("flow_jobs_total").inc(len(jobs))
            registry.counter("flow_batches_total").inc()
            with self._counter_lock:
                self.jobs_run += len(jobs)
                self.batches_run += 1
        return outcomes  # type: ignore[return-value]

    def evaluate_at(
        self, job, index: int = 0, dispatch: int = 0
    ) -> FlowOutcome:
        """Evaluate one job exactly as global index ``index``.

        This is the distributed actors' door: per-job randomness (retry
        jitter, injected faults) is keyed by the global index, so an actor
        that owns proposal ``index`` of the online loop produces, in its
        own process, the bit-identical outcome :meth:`evaluate` gives the
        job it runs at that index.  ``dispatch`` counts prior dispatch
        attempts of the same logical job (a previous owner died holding
        it); like the pool's re-dispatch path it perturbs only the
        fault-injection stream, never the executor's jitter — a
        re-dispatched job without an active fault plan is
        indistinguishable from the first attempt.
        """
        job = _coerce(job)
        outcome = self._cached(job)
        if outcome is not None:
            return outcome
        outcome = self._run_inprocess(index, job, kills=dispatch)
        self._store(job, outcome)
        with self._counter_lock:
            self.jobs_run += 1
        return outcome

    def evaluate_strict(self, jobs: Sequence) -> List[FlowResult]:
        """All-or-nothing batch: results in submission order, or the
        first failed job's terminal typed :class:`~repro.errors.FlowError`
        (by submission order, not completion order)."""
        outcomes = self.evaluate(jobs)
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.error
        return [outcome.result for outcome in outcomes]

    # -- in-process execution ------------------------------------------
    def _run_serial(
        self, tasks: Sequence[Tuple[int, object]]
    ) -> Iterator[Tuple[int, FlowOutcome]]:
        """Run planned tasks in this process, in order."""
        for index, task in tasks:
            if isinstance(task, _JobGroup):
                grouped = _execute_group(self.config, task)
                self._note_batch_stats(grouped.stats)
                yield from grouped.reports
            else:
                yield index, self._run_inprocess(index, task)

    def _run_inprocess(self, index: int, job: FlowJob,
                       kills: int = 0) -> FlowOutcome:
        """One job under the serial equivalent of pool supervision.

        :class:`~repro.runtime.faults.SimulatedWorkerDeath` stands in for
        real worker death and feeds the same poison accounting; the
        watchdog is enforced post-hoc on measured wall time (a stalled
        "worker" cannot be pre-empted in-process, but the typed outcome is
        identical to the pool's).
        """
        watchdog_s = self.config.watchdog_s
        while True:
            started = time.monotonic()
            try:
                outcome = _execute_job(self.config, self._flow_fn, index,
                                       job, dispatch=kills)
            except SimulatedWorkerDeath:
                kills += 1
                if kills > self.config.poison_retries:
                    self._note_poison()
                    return _quarantine_report(job, kills)
                self._note_redispatch()
                get_registry().counter("flow_worker_restarts_total").inc(
                    mode="inprocess"
                )
                continue
            if (watchdog_s is not None
                    and time.monotonic() - started > watchdog_s):
                return _watchdog_report(job, watchdog_s)
            return outcome

    # -- supervision bookkeeping ---------------------------------------
    def _supervision_counters(self) -> Dict[str, int]:
        with self._counter_lock:
            return {
                "restarts": self.worker_restarts,
                "redispatched": self.jobs_redispatched,
                "poisoned": self.poison_jobs,
            }

    def _note_death(self, death) -> Optional[Tuple[int, object, int]]:
        """Count one worker death's respawn; returns its lost task."""
        member = death.member
        lost = member.inflight
        if death.replacement is not None:
            with self._counter_lock:
                self.worker_restarts += 1
            get_registry().counter("flow_worker_restarts_total").inc(
                mode="pool"
            )
            exitcode = member.process.exitcode
            with get_tracer().span(
                "flow.worker_restart", worker=member.id,
                exitcode=-1 if exitcode is None else int(exitcode),
                job=-1 if lost is None else int(lost[0]),
            ):
                pass
        return lost

    def _note_redispatch(self) -> None:
        with self._counter_lock:
            self.jobs_redispatched += 1
        get_registry().counter("flow_jobs_redispatched_total").inc()

    def _note_poison(self) -> None:
        with self._counter_lock:
            self.poison_jobs += 1
        get_registry().counter("flow_poison_jobs_total").inc()

    def _note_batch_stats(self, stats: Dict[str, int]) -> None:
        """Fold one stacked dispatch's kernel counters into the totals."""
        twins = stats.get("placement_twins", 0)
        if twins:
            get_registry().counter(
                "flow_batch_placement_twins_total"
            ).inc(twins)
        with self._counter_lock:
            for key, value in stats.items():
                self._batch_stats[key] = self._batch_stats.get(key, 0) + value

    def _pool_exhausted(self, unfinished: int) -> WorkerPoolError:
        return WorkerPoolError(
            f"worker pool exhausted its respawn budget "
            f"({self.config.max_respawns}) and degrade_to_serial is off; "
            f"{unfinished} job(s) unfinished"
        )

    # -- the worker pool -----------------------------------------------
    def _ensure_pool(self, jobs: Sequence[FlowJob]) -> SupervisedPool:
        if self._pool is None:
            # A custom flow owns its inputs; only the built-in engine
            # reads the pristine netlists.
            warm = [] if self._flow_fn is not None else list(dict.fromkeys(
                (job.design, job.seed) for job in jobs
            ))
            if START_METHOD == "fork":
                # Generate and compile each pristine netlist once in the
                # parent; every forked worker — including respawns —
                # inherits the warm cache copy-on-write.
                _warm_netlists(warm)
                warm = []
            config, flow_fn = self.config, self._flow_fn
            self._pool = SupervisedPool(
                _supervised_worker,
                lambda: (config, flow_fn, warm),
                size=config.workers,
                max_respawns=config.max_respawns,
                gauge="flow_workers_live",
            )
        return self._pool

    def _run_pool(
        self, tasks: Sequence[Tuple[int, object]]
    ) -> Iterator[Tuple[int, FlowOutcome]]:
        """Drive one batch through the worker pool.

        Yields ``(index, outcome)`` for *every* job, exactly once, as jobs
        finish, whatever workers die, stall, or take the pool down:

        - a worker that dies holding a task hands it back, and the task is
          re-dispatched with an incremented dispatch count up to
          ``poison_retries`` times, then quarantined as a typed
          :class:`~repro.errors.WorkerCrash` report;
        - a task in flight longer than ``watchdog_s`` gets its worker
          killed and surfaces as a typed
          :class:`~repro.errors.FlowTimeout` report;
        - once no worker is left the rest of the batch runs in-process
          (or :class:`~repro.errors.WorkerPoolError` is raised when
          ``degrade_to_serial`` is off);
        - non-flow exceptions shipped back from a worker are re-raised.

        Answers carry the batch epoch, so a late answer to an earlier
        batch can never be taken for this one's.
        """
        pool = self._pool
        poison_retries = self.config.poison_retries
        watchdog_s = self.config.watchdog_s
        self._epoch += 1
        epoch = self._epoch
        backlog: Deque[Tuple[int, object, int]] = deque(
            (index, job, 0) for index, job in tasks
        )
        kills: Dict[int, int] = {}
        done: Set[int] = set()
        # A _JobGroup task is one dispatch unit but several logical jobs.
        total = sum(
            len(job) if isinstance(job, _JobGroup) else 1
            for _, job in tasks
        )
        finished = 0
        while finished < total:
            if self.degraded or not pool.members:
                for item in self._degrade_pool(backlog, kills):
                    done.add(item[0])
                    finished += 1
                    yield item
                continue
            for member in pool.idle():
                if not backlog:
                    break
                index, job, dispatch = backlog.popleft()
                pool.dispatch(member, (epoch, index, job, dispatch),
                              work=(index, job, dispatch))
            answers, deaths = pool.poll()
            for _, (item_epoch, index, payload) in answers:
                if item_epoch != epoch or index in done:
                    continue
                done.add(index)
                if isinstance(payload, _GroupResult):
                    self._note_batch_stats(payload.stats)
                    for job_index, outcome in payload.reports:
                        done.add(job_index)
                        finished += 1
                        yield job_index, outcome
                else:
                    finished += 1
                    yield index, payload
            # A dead worker's in-flight task was lost with it.
            for death in deaths:
                lost = self._note_death(death)
                if lost is None or lost[0] in done:
                    continue
                index, job, _ = lost
                kills[index] = kills.get(index, 0) + 1
                if kills[index] > poison_retries:
                    self._note_poison()
                    done.add(index)
                    for job_index, member_job in _task_members(index, job):
                        done.add(job_index)
                        finished += 1
                        yield job_index, _quarantine_report(
                            member_job, kills[index]
                        )
                else:
                    self._note_redispatch()
                    backlog.appendleft((index, job, kills[index]))
            # Watchdog: kill workers stuck past the wall-clock budget.
            if watchdog_s is None:
                continue
            now = time.monotonic()
            for member in pool.members:
                if member.inflight is None \
                        or now - member.dispatched_at <= watchdog_s:
                    continue
                index, job, _ = self._note_death(
                    pool.retire(member, kill=True)
                )
                if index in done:
                    continue
                done.add(index)
                for job_index, member_job in _task_members(index, job):
                    done.add(job_index)
                    finished += 1
                    yield job_index, _watchdog_report(member_job, watchdog_s)

    def _degrade_pool(
        self,
        backlog: Deque[Tuple[int, object, int]],
        kills: Dict[int, int],
    ) -> Iterator[Tuple[int, FlowOutcome]]:
        """No worker left: recover in-flight tasks, stop the pool, and run
        everything left through the serial supervision path."""
        if not self.degraded:
            self.degraded = True
            get_registry().counter("flow_pool_degraded_total").inc()
            for member in self._pool.members:
                if member.inflight is not None:
                    backlog.appendleft(member.inflight)
            self._pool.shutdown(timeout_s=0.0)
        if not self.config.degrade_to_serial:
            raise self._pool_exhausted(len(backlog))
        while backlog:
            index, job, _ = backlog.popleft()
            # Groups degrade to their members run one by one: a stack is
            # bit-identical to its lanes run alone, so the serial path
            # reproduces each outcome.
            for job_index, member_job in _task_members(index, job):
                yield job_index, self._run_inprocess(
                    job_index, member_job, kills.get(index, 0)
                )

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Runtime counters: workers, jobs/batches run, the supervision
        and stacking counters, and cache occupancy (when one is
        attached)."""
        pool = self._pool
        with self._counter_lock:
            frozen_steps = self._batch_stats.get("frozen_steps", 0)
            total_steps = frozen_steps + self._batch_stats.get("lane_steps", 0)
            out: Dict[str, object] = {
                "workers": self.config.workers,
                "batch_size": self.config.batch_size,
                "batch_calls": self.batch_calls,
                "batch_grouped_jobs": self.batch_grouped_jobs,
                "batch_max_width": self.batch_max_width,
                "batch_padding_waste": (
                    frozen_steps / total_steps if total_steps else 0.0
                ),
                "batch_placement_twins": self._batch_stats.get(
                    "placement_twins", 0
                ),
                "jobs_run": self.jobs_run,
                "batches_run": self.batches_run,
                "pool_live": pool is not None,
                "workers_live": 0 if pool is None else pool.live_count(),
                "worker_restarts": self.worker_restarts,
                "jobs_redispatched": self.jobs_redispatched,
                "poison_jobs": self.poison_jobs,
                "degraded": self.degraded,
            }
        if self.cache is not None:
            out["cache"] = self.cache.info()
        return out

    def close(self, timeout_s: float = SHUTDOWN_S) -> None:
        """Shut the worker pool down, if one was started (idempotent).

        Graceful first — shutdown sentinels plus a bounded join, so idle
        workers tear down cleanly — with SIGKILL as the fallback for
        anything still alive at the deadline.
        """
        if self._pool is not None:
            self._pool.shutdown(timeout_s=timeout_s)
            self._pool = None

    def __enter__(self) -> "FlowSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass
