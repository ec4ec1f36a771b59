"""Parallel flow evaluation: process-pool batches + persistent QoR cache.

The expensive outer loop of the whole reproduction is the P&R tool: offline
archive construction runs ~176 recipe sets on each of 17 designs, and every
online fine-tuning iteration evaluates K fresh recipe sets.  This module
makes those batches concurrent without giving up any of the guarantees the
sequential path has:

- :class:`ParallelFlowExecutor` fans a batch of :class:`FlowJob`\\ s out over
  a process pool with warm worker reuse (one pool per executor, netlist
  cache pre-seeded per worker) while composing the existing
  :class:`~repro.runtime.executor.FlowExecutor` semantics per job —
  deadlines, bounded retries, and the typed
  :class:`~repro.errors.FlowTimeout` / :class:`~repro.errors.FlowCrash` /
  :class:`~repro.errors.CorruptQoR` taxonomy, all of which survive pickling
  across the pool boundary.
- **Determinism regardless of worker count or completion order.**  Every
  per-job randomness source (retry jitter, injected faults) is derived from
  the job's *batch index*, never from global call order, so a batch returns
  bit-identical :class:`~repro.flow.result.FlowResult`\\ s whether it runs
  on 1, 2 or 8 workers — including under a seeded
  :class:`~repro.runtime.parallel.FaultPlan`.
- :class:`QoRCache` persists successful results on disk keyed by
  ``(profile name, seed, canonical params hash)``, so repeated evaluations
  — online-loop dedup, benchmark reruns, cross-validation folds — are free.
  Writes are atomic (temp file + ``os.replace``); corrupt entries degrade
  to cache misses.
- **Process-level fault tolerance.**  Workers are not pooled through a bare
  ``multiprocessing.Pool`` (whose ``imap_unordered`` deadlocks forever if a
  worker dies holding a job) but as members of a
  :class:`~repro.runtime.supervisor.SupervisedPool`, which detects worker
  death, respawns workers under the ``max_respawns`` budget and hands the
  lost job back.  This module adds the flow policy: one in-flight job per
  worker tagged with the batch epoch, stacked ``_JobGroup`` dispatch, and
  re-dispatch of a lost job.  A job that kills its worker more than
  ``poison_retries`` times is quarantined as a typed
  :class:`~repro.errors.WorkerCrash` report; a job that wedges past
  ``watchdog_s`` wall-clock seconds gets its worker killed and surfaces as
  a typed :class:`~repro.errors.FlowTimeout`; and once no worker is left
  the batch degrades gracefully to supervised in-process serial execution
  (or raises :class:`~repro.errors.WorkerPoolError` when
  ``degrade_to_serial`` is off).  Re-dispatch seeds are keyed by ``(job
  index, dispatch count)``, so a re-dispatched job reproduces the serial
  run bit-for-bit.

``workers=1`` (the default everywhere) runs the same per-job machinery
in-process: no pool, no pickling constraints, byte-for-byte the results the
pool produces — including the poison/watchdog accounting, driven by
:class:`~repro.runtime.faults.SimulatedWorkerDeath` instead of real process
death.  See ``docs/performance.md`` for the end-to-end story and
``docs/robustness.md`` for the supervision design.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
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
    FlowTimeout,
    ReproError,
    WorkerCrash,
    WorkerPoolError,
)
from repro.flow.parameters import FlowParameters
from repro.flow.result import FlowResult
from repro.observability import get_registry, get_tracer, new_lock
from repro.runtime.clock import VirtualClock
from repro.runtime.executor import (
    FlowAttempt,
    FlowExecutor,
    FlowRunReport,
    RetryPolicy,
)
from repro.runtime.faults import (
    FaultInjector,
    FaultKind,
    SimulatedWorkerDeath,
    mark_pool_worker,
)
from repro.runtime.supervisor import (
    SHUTDOWN_S,
    START_METHOD,
    RemoteError,
    SupervisedPool,
)

# Version stamp baked into every cache key: bump when FlowResult layout or
# flow semantics change so stale entries can never masquerade as fresh runs.
QOR_CACHE_VERSION = 1

# Most lanes per stacked flow evaluation unless configured otherwise.
DEFAULT_BATCH_SIZE = 16


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


@dataclass(frozen=True)
class FlowJob:
    """One unit of flow work: a (design, parameters, seed) triple."""

    design: str
    params: FlowParameters = field(default_factory=FlowParameters)
    seed: int = 0


@dataclass(frozen=True)
class _JobGroup:
    """A stack of compatible jobs dispatched as one batched evaluation.

    Members share a (profile, seed) pair — one pristine netlist — and
    differ only in parameters, so ``run_flow_batch`` can evaluate them as
    lanes of one compiled design.  The group travels through the supervisor
    as a single task keyed by its first member's batch index.
    """

    jobs: Tuple[Tuple[int, FlowJob], ...]

    @property
    def index(self) -> int:
        return self.jobs[0][0]

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


@dataclass(frozen=True)
class FaultPlan:
    """Picklable recipe for per-job fault injection inside pool workers.

    A live :class:`~repro.runtime.faults.FaultInjector` wraps a closure and
    cannot cross the pool boundary; a plan can.  Each worker builds one
    injector *per job*, seeded from ``(seed, job index)``, paired with a
    private :class:`~repro.runtime.clock.VirtualClock` shared with that
    job's executor — so hangs overrun deadlines without real waiting and
    the fault schedule is identical at any worker count.
    """

    rate: float
    kinds: Optional[Tuple[FaultKind, ...]] = None
    seed: int = 0
    hang_s: float = 3600.0
    stall_s: float = 30.0


@dataclass(frozen=True)
class _RunnerSettings:
    """Everything a worker needs to supervise one job (all picklable)."""

    flow_fn: Optional[Callable] = None  # None -> width-1 run_flow_batch
    policy: RetryPolicy = RetryPolicy()
    deadline_s: Optional[float] = None
    min_snapshots: Optional[int] = None
    seed: int = 0
    fault_plan: Optional[FaultPlan] = None


def _execute_job(settings: _RunnerSettings, index: int,
                 job: FlowJob, dispatch: int = 0) -> FlowRunReport:
    """Run one supervised job, identically in-process or in a worker.

    ``dispatch`` counts how many times this job's worker has already died
    (0 on first dispatch).  It feeds the fault-stream seed so a
    re-dispatched job draws a *fresh* schedule — a job that was killed by
    chance can survive its re-dispatch — while dispatch 0 reproduces the
    exact pre-supervision schedules.  Both the pool supervisor and the
    serial path key on the same ``(index, dispatch)`` pair, which is what
    makes re-dispatched results bit-identical to the workers=1 run.
    """
    if settings.flow_fn is None:
        from repro.flow.batch_runner import run_flow_lane

        flow_fn = run_flow_lane
    else:
        flow_fn = settings.flow_fn
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep
    if settings.fault_plan is not None:
        plan = settings.fault_plan
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
        policy=settings.policy,
        deadline_s=settings.deadline_s,
        min_snapshots=settings.min_snapshots,
        clock=clock,
        sleep=sleep,
        seed=_job_stream_seed(settings.seed, index),
    )
    return executor.try_execute(job.design, job.params, seed=job.seed)


def _execute_group(settings: _RunnerSettings, group: _JobGroup,
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
            if settings.min_snapshots is not None:
                from repro.errors import CorruptQoR

                for result in results:
                    if len(result.snapshots) < settings.min_snapshots:
                        raise CorruptQoR(
                            f"flow run on {result.design} returned only "
                            f"{len(result.snapshots)} stage snapshots "
                            f"(expected >= {settings.min_snapshots}): "
                            f"partial report"
                        )
        except (KeyboardInterrupt, SystemExit, SimulatedWorkerDeath):
            raise
        except Exception:  # noqa: BLE001 - per-job path reproduces outcomes
            return _GroupResult([
                (index, _execute_job(settings, index, job, dispatch))
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


# ----------------------------------------------------------------------
# Pool worker plumbing (module-level so it pickles under any start method).
# ----------------------------------------------------------------------
_WORKER_SETTINGS: Optional[_RunnerSettings] = None


def _worker_init(settings: _RunnerSettings,
                 warm: Sequence[Tuple[str, int]]) -> None:
    """Pool initializer: stash settings, pre-seed the netlist cache."""
    global _WORKER_SETTINGS
    _WORKER_SETTINGS = settings
    if warm:
        from repro.flow.runner import (
            _fresh_netlist,
            netlist_cache_info,
            netlist_cache_limit,
        )
        from repro.netlist.profiles import get_profile

        # Warm the whole batch's working set even when it exceeds the
        # configured LRU cap; the cap (and eviction) is restored on exit
        # even if a profile lookup raises.
        with netlist_cache_limit(
            max(netlist_cache_info()["limit"], len(warm))
        ):
            for design, seed in warm:
                try:
                    _fresh_netlist(get_profile(design), seed)
                except ReproError:
                    # Warming is an optimization, never a failure mode;
                    # an unknown design will surface properly when its
                    # job runs.
                    pass


def _supervised_worker(worker_id: int, spawn: int, task_queue, result_conn,
                       settings: _RunnerSettings,
                       warm: Sequence[Tuple[str, int]]) -> None:
    """Main of one supervised pool worker.

    Marks the process as a pool worker (so ``WORKER_KILL`` faults die for
    real), performs the warm-cache initialization, then serves ``(epoch,
    index, job, dispatch)`` tasks until the ``None`` shutdown sentinel
    arrives.  Each task is answered with one ``(epoch, index, payload)``
    send, or a :class:`~repro.runtime.supervisor.RemoteError` for a
    non-flow exception.  A worker that dies mid-job simply never answers
    — exactly the signal the supervised pool watches for.
    """
    mark_pool_worker()
    _worker_init(settings, warm)
    while True:
        task = task_queue.get()
        if task is None:
            return
        epoch, index, job, dispatch = task
        try:
            if isinstance(job, _JobGroup):
                payload: object = _execute_group(settings, job, dispatch)
            else:
                payload = _execute_job(settings, index, job, dispatch)
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


# ----------------------------------------------------------------------
# Persistent QoR result cache
# ----------------------------------------------------------------------
def qor_cache_key(design: Union[str, object], params: FlowParameters,
                  seed: int) -> str:
    """Canonical cache key: sha256 over (profile name, seed, flat params).

    ``FlowParameters.flat`` enumerates every knob as ``section.field ->
    float``; JSON with sorted keys and ``repr``-exact floats makes the
    digest independent of dict ordering and stable across processes.
    """
    from repro.netlist.profiles import get_profile

    profile = get_profile(design) if isinstance(design, str) else design
    payload = {
        "v": QOR_CACHE_VERSION,
        "design": profile.name,
        "seed": int(seed),
        "params": params.flat(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class QoRCache:
    """On-disk cache of successful :class:`FlowResult`\\ s.

    Layout: ``<path>/<key[:2]>/<key>.pkl`` (sharded so no directory grows
    unbounded).  Entries are written atomically via the checkpoint layer's
    ``atomic_pickle``; a concurrent reader sees either the full entry or a
    miss, never a torn file.  Unreadable entries are deleted and reported
    as misses — the cache can only ever cost a re-run, not correctness.

    Hit/miss/eviction counters are guarded by the observability registry's
    lock primitive (several threads may share one cache) and mirrored into
    the process-wide ``qor_cache_*_total`` counter families.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = os.fspath(path)
        os.makedirs(self.path, exist_ok=True)
        self._lock = new_lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        return os.path.join(self.path, key[:2], key + ".pkl")

    def _count(self, outcome: str) -> None:
        with self._lock:
            if outcome == "hit":
                self.hits += 1
            elif outcome == "miss":
                self.misses += 1
            else:
                self.evictions += 1
        get_registry().counter(f"qor_cache_{outcome}s_total").inc()

    def get(self, design, params: FlowParameters, seed: int
            ) -> Optional[FlowResult]:
        """The cached result, or ``None`` (miss / corrupt entry)."""
        entry = self._entry_path(qor_cache_key(design, params, seed))
        try:
            with open(entry, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self._count("miss")
            return None
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            self._evict(entry)
            self._count("eviction")
            self._count("miss")
            return None
        if not isinstance(result, FlowResult):
            self._evict(entry)
            self._count("eviction")
            self._count("miss")
            return None
        self._count("hit")
        return result

    def put(self, design, params: FlowParameters, seed: int,
            result: FlowResult) -> None:
        """Atomically persist one successful result."""
        from repro.runtime.checkpoint import atomic_pickle

        entry = self._entry_path(qor_cache_key(design, params, seed))
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        atomic_pickle(result, entry)

    @staticmethod
    def _evict(entry: str) -> None:
        try:
            os.remove(entry)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _entries(self) -> List[str]:
        found = []
        for shard in sorted(os.listdir(self.path)):
            shard_dir = os.path.join(self.path, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".pkl"):
                    found.append(os.path.join(shard_dir, name))
        return found

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in self._entries():
            self._evict(entry)
            removed += 1
        return removed

    def info(self) -> Dict[str, object]:
        """Occupancy summary (mirrors ``netlist_cache_info``).

        Counter reads happen under the cache lock, so a snapshot taken
        while other threads serve hits/misses is internally consistent.
        """
        entries = self._entries()
        total = 0
        for entry in entries:
            try:
                total += os.path.getsize(entry)
            except OSError:
                pass
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
        return {
            "path": self.path,
            "entries": len(entries),
            "bytes": total,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
        }


# ----------------------------------------------------------------------
# The parallel executor
# ----------------------------------------------------------------------
class ParallelFlowExecutor:
    """Evaluates batches of flow jobs concurrently, deterministically.

    Args:
        workers: Process count.  ``1`` (default) runs in-process — same
            per-job supervision, no pool, no pickling constraints.
        flow_fn: Tool invocation ``(design, params, seed=...) ->
            FlowResult``; must be picklable (module-level) when
            ``workers > 1``.  ``None`` (default) selects the built-in
            stacked engine: compatible jobs run as lanes of one
            ``run_flow_batch`` call and the rest as width-1 stacks
            (:func:`repro.flow.batch_runner.run_flow_lane`).  A custom
            callable always runs one job at a time; pass
            :func:`repro.flow.runner.run_flow` for the scalar reference.
        policy / deadline_s / min_snapshots: Per-job
            :class:`~repro.runtime.executor.FlowExecutor` supervision knobs.
        seed: Base seed for per-job retry-jitter streams.
        cache: A :class:`QoRCache`, a directory path to open one at, or
            ``None``.  Only successful, fault-free results are cached.
        fault_plan: Optional :class:`FaultPlan` rehearsing failures with a
            job-index-keyed schedule (disables the cache for the batch —
            injected outcomes must never be persisted as truth).
        max_respawns: Worker deaths the pool absorbs (respawning the
            worker each time) before the pool stops replacing workers and,
            once none are left, degrades.
        poison_retries: Times a job whose worker died is re-dispatched
            before it is quarantined as a typed
            :class:`~repro.errors.WorkerCrash` report.
        watchdog_s: Wall-clock budget per dispatch; a worker holding one
            job longer is killed and the job surfaces as a typed
            :class:`~repro.errors.FlowTimeout`.  ``None`` disables the
            watchdog.
        degrade_to_serial: When the respawn budget is exhausted, finish
            the batch with supervised in-process execution (default)
            instead of raising :class:`~repro.errors.WorkerPoolError`.
        batch_size: Most lanes per stacked evaluation (default 16).  Jobs
            sharing a (profile, netlist seed) pair stack, in widths of at
            most ``ceil(n / workers)`` for ``n`` pending jobs so every
            worker gets a share of a small batch.  Width is 1 — every job
            on its own -- under a ``fault_plan``, ``deadline_s`` or
            ``watchdog_s`` (all per-job policies) or a custom
            ``flow_fn``.  Results are bit-identical at any width.
    """

    def __init__(
        self,
        workers: int = 1,
        flow_fn: Optional[Callable] = None,
        policy: RetryPolicy = RetryPolicy(),
        deadline_s: Optional[float] = None,
        min_snapshots: Optional[int] = None,
        seed: int = 0,
        cache: Union[QoRCache, os.PathLike, str, None] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_respawns: int = 8,
        poison_retries: int = 1,
        watchdog_s: Optional[float] = None,
        degrade_to_serial: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {max_respawns}"
            )
        if poison_retries < 0:
            raise ValueError(
                f"poison_retries must be >= 0, got {poison_retries}"
            )
        if watchdog_s is not None and not watchdog_s > 0:
            raise ValueError(
                f"watchdog_s must be positive or None, got {watchdog_s}"
            )
        self.workers = int(workers)
        self.batch_size = int(batch_size)
        self.max_respawns = int(max_respawns)
        self.poison_retries = int(poison_retries)
        self.watchdog_s = watchdog_s
        self.degrade_to_serial = bool(degrade_to_serial)
        if cache is None or isinstance(cache, QoRCache):
            self.cache = cache
        else:
            self.cache = QoRCache(cache)
        self._settings = _RunnerSettings(
            flow_fn=flow_fn,
            policy=policy,
            deadline_s=deadline_s,
            min_snapshots=min_snapshots,
            seed=seed,
            fault_plan=fault_plan,
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
        return self.cache is not None and self._settings.fault_plan is None

    @property
    def _batch_enabled(self) -> bool:
        """Whether stacked evaluation applies to this executor's jobs.

        Fault injection, per-attempt deadlines and the dispatch watchdog
        are per-job policies, and a custom flow callable takes one job at
        a time; any of them runs every job on its own.
        """
        return (
            self.batch_size > 1
            and self._settings.flow_fn is None
            and self._settings.fault_plan is None
            and self._settings.deadline_s is None
            and self.watchdog_s is None
        )

    def _plan_tasks(
        self, pending: Sequence[Tuple[int, FlowJob]]
    ) -> List[Tuple[int, object]]:
        """Fold compatible pending jobs into ``_JobGroup`` dispatch units.

        Jobs sharing a (profile, seed) pair — one pristine netlist — are
        stacked, in submission order, into groups of at most
        ``min(batch_size, ceil(n / workers))`` for ``n`` pending jobs, so
        a batch too small to fill the pool at full width still gives
        every worker a share; singletons stay per-job tasks.  Group tasks
        are keyed by their first member's batch index.
        """
        buckets: Dict[Tuple[str, int], List[Tuple[int, FlowJob]]] = {}
        for index, job in pending:
            name = getattr(job.design, "name", None) or str(job.design)
            buckets.setdefault((name, job.seed), []).append((index, job))
        width = min(self.batch_size, math.ceil(len(pending) / self.workers))
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

    def run_batch(self, jobs: Sequence[FlowJob]) -> List[FlowRunReport]:
        """Evaluate ``jobs``; reports come back in submission order.

        Tool failures are captured per job inside each
        :class:`FlowRunReport` (never raised); non-flow
        :class:`~repro.errors.ReproError`\\ s — configuration bugs — still
        propagate, exactly as :meth:`FlowExecutor.try_execute` does.
        """
        jobs = [self._coerce(job) for job in jobs]
        registry = get_registry()
        with get_tracer().span(
            "flow.batch", jobs=len(jobs), workers=self.workers
        ) as batch_span:
            reports: List[Optional[FlowRunReport]] = [None] * len(jobs)
            pending: List[Tuple[int, FlowJob]] = []
            for index, job in enumerate(jobs):
                cached = (
                    self.cache.get(job.design, job.params, job.seed)
                    if self._cache_enabled else None
                )
                if cached is not None:
                    reports[index] = FlowRunReport(
                        design=str(job.design), result=cached, cached=True
                    )
                else:
                    pending.append((index, job))

            batch_span.set_attribute("cached", len(jobs) - len(pending))
            queue_depth = registry.gauge("flow_pool_queue_depth")
            try:
                if pending:
                    queue_depth.set(len(pending))
                    tasks = (
                        self._plan_tasks(pending) if self._batch_enabled
                        else list(pending)
                    )
                    if self.workers == 1 or self.degraded:
                        for index, task in tasks:
                            if isinstance(task, _JobGroup):
                                grouped = _execute_group(
                                    self._settings, task
                                )
                                self._note_batch_stats(grouped.stats)
                                for job_index, report in grouped.reports:
                                    reports[job_index] = report
                                    queue_depth.dec()
                            else:
                                reports[index] = (
                                    self._run_supervised_inprocess(
                                        index, task
                                    )
                                )
                                queue_depth.dec()
                    else:
                        self._ensure_pool(jobs)
                        before = self._supervision_counters()
                        with get_tracer().span(
                            "flow.supervise", workers=self.workers,
                            jobs=len(pending),
                        ) as sup_span:
                            # Unordered completion + index reassembly:
                            # stragglers never stall finished results, and
                            # submission order is restored from the index,
                            # so completion order is unobservable.
                            for index, report in self._run_pool(tasks):
                                reports[index] = report
                                queue_depth.dec()
                            after = self._supervision_counters()
                            sup_span.set_attributes(**{
                                key: after[key] - before[key]
                                for key in before
                            }, degraded=self.degraded)
                    if self._cache_enabled:
                        for index, job in pending:
                            report = reports[index]
                            if report is not None and report.ok:
                                self.cache.put(
                                    job.design, job.params, job.seed,
                                    report.result,
                                )
            finally:
                # A batch leaves no residue: the gauge reads 0 between
                # batches (a fully-cached batch never touched it, and the
                # last in-batch decrement used to linger indefinitely).
                queue_depth.set(0)
            failed = sum(1 for r in reports if r is not None and not r.ok)
            batch_span.set_attribute("failed", failed)
            registry.counter("flow_jobs_total").inc(len(jobs))
            registry.counter("flow_batches_total").inc()
            with self._counter_lock:
                self.jobs_run += len(jobs)
                self.batches_run += 1
        return reports  # type: ignore[return-value]

    def execute_batch(self, jobs: Sequence[FlowJob]) -> List[FlowResult]:
        """All-or-nothing batch: results in order, or the first job's
        terminal typed :class:`~repro.errors.FlowError` (by submission
        order, not completion order)."""
        reports = self.run_batch(jobs)
        for report in reports:
            if not report.ok:
                raise report.error
        return [report.result for report in reports]

    def run_at(self, job, index: int = 0,
               dispatch: int = 0) -> FlowRunReport:
        """One job evaluated exactly as position ``index`` of a batch.

        The distributed actors' primitive: per-job randomness (retry
        jitter, injected faults) is keyed by ``index`` just as
        :meth:`run_batch` keys it, so an actor evaluating proposal
        ``index`` in its own process produces the bit-identical report the
        serial batch would have produced at that position.  ``dispatch``
        counts prior dispatch attempts of the same logical job (an actor
        died holding it); like the supervised pool's re-dispatch path it
        perturbs only the fault stream, never the executor's jitter — a
        re-dispatched job without an active fault plan is indistinguishable
        from the first attempt.
        """
        job = self._coerce(job)
        cached = (
            self.cache.get(job.design, job.params, job.seed)
            if self._cache_enabled else None
        )
        if cached is not None:
            return FlowRunReport(
                design=str(job.design), result=cached, cached=True
            )
        report = self._run_supervised_inprocess(index, job, kills=dispatch)
        if self._cache_enabled and report.ok:
            self.cache.put(job.design, job.params, job.seed, report.result)
        with self._counter_lock:
            self.jobs_run += 1
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(job) -> FlowJob:
        if isinstance(job, FlowJob):
            return job
        if isinstance(job, tuple):
            return FlowJob(*job)
        raise TypeError(f"expected FlowJob or tuple, got {type(job).__name__}")

    def _run_supervised_inprocess(self, index: int, job: FlowJob,
                                  kills: int = 0) -> FlowRunReport:
        """One job under the serial equivalent of pool supervision.

        :class:`~repro.runtime.faults.SimulatedWorkerDeath` stands in for
        real worker death and feeds the same poison accounting; the
        watchdog is enforced post-hoc on measured wall time (a stalled
        "worker" cannot be pre-empted in-process, but the typed outcome is
        identical to the pool's).
        """
        registry = get_registry()
        while True:
            started = time.monotonic()
            try:
                report = _execute_job(self._settings, index, job,
                                      dispatch=kills)
            except SimulatedWorkerDeath:
                kills += 1
                if kills > self.poison_retries:
                    self._note_poison()
                    return _quarantine_report(job, kills)
                self._note_redispatch()
                registry.counter("flow_worker_restarts_total").inc(
                    mode="inprocess"
                )
                continue
            if (self.watchdog_s is not None
                    and time.monotonic() - started > self.watchdog_s):
                return _watchdog_report(job, self.watchdog_s)
            return report

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

    def _note_degraded(self) -> None:
        self.degraded = True
        get_registry().counter("flow_pool_degraded_total").inc()

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

    def _ensure_pool(self, jobs: Sequence[FlowJob]) -> SupervisedPool:
        if self._pool is None:
            warm = []
            seen = set()
            for job in jobs:
                key = (str(job.design), job.seed)
                if key not in seen:
                    seen.add(key)
                    warm.append(key)
            if START_METHOD == "fork":
                # Generate each pristine netlist once in the parent; every
                # forked worker — including respawns — inherits the warm
                # cache copy-on-write.
                _worker_init(self._settings, warm)
                warm = []
            settings = self._settings
            self._pool = SupervisedPool(
                _supervised_worker,
                lambda: (settings, warm),
                size=self.workers,
                max_respawns=self.max_respawns,
                gauge="flow_workers_live",
            )
        return self._pool

    # -- the pool's flow policy ----------------------------------------
    def _run_pool(
        self, tasks: Sequence[Tuple[int, object]]
    ) -> Iterator[Tuple[int, FlowRunReport]]:
        """Drive one batch through the worker pool.

        Yields ``(index, report)`` for *every* job, exactly once, as jobs
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
                    for job_index, report in payload.reports:
                        done.add(job_index)
                        finished += 1
                        yield job_index, report
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
                if kills[index] > self.poison_retries:
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
            if self.watchdog_s is None:
                continue
            now = time.monotonic()
            for member in pool.members:
                if member.inflight is None \
                        or now - member.dispatched_at <= self.watchdog_s:
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
                    yield job_index, _watchdog_report(
                        member_job, self.watchdog_s
                    )

    def _degrade_pool(
        self,
        backlog: Deque[Tuple[int, object, int]],
        kills: Dict[int, int],
    ) -> Iterator[Tuple[int, FlowRunReport]]:
        """No worker left: recover in-flight tasks, stop the pool, and run
        everything left through the serial supervision path."""
        if not self.degraded:
            self._note_degraded()
            for member in self._pool.members:
                if member.inflight is not None:
                    backlog.appendleft(member.inflight)
            self._pool.shutdown(timeout_s=0.0)
        if not self.degrade_to_serial:
            raise WorkerPoolError(
                f"worker pool exhausted its respawn budget "
                f"({self.max_respawns}) and degrade_to_serial is off; "
                f"{len(backlog)} job(s) unfinished"
            )
        while backlog:
            index, job, _ = backlog.popleft()
            # Groups degrade to their members run one by one: a stack is
            # bit-identical to its lanes run alone, so the serial path
            # reproduces each outcome.
            for job_index, member_job in _task_members(index, job):
                yield job_index, self._run_supervised_inprocess(
                    job_index, member_job, kills.get(index, 0)
                )

    def close(self, timeout_s: float = SHUTDOWN_S) -> None:
        """Shut the worker pool down (idempotent).

        Graceful first — shutdown sentinels plus a bounded join, so idle
        workers tear down cleanly — with SIGKILL as the fallback for
        anything still alive at the deadline.
        """
        if self._pool is not None:
            self._pool.shutdown(timeout_s=timeout_s)
            self._pool = None

    def __enter__(self) -> "ParallelFlowExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort; close() is the real API
        try:
            self.close()
        except Exception:
            pass

    def stats(self) -> Dict[str, object]:
        """Executor counters plus cache occupancy (when one is attached)."""
        with self._counter_lock:
            jobs_run, batches_run = self.jobs_run, self.batches_run
            restarts = self.worker_restarts
            redispatched = self.jobs_redispatched
            poisoned = self.poison_jobs
            batch_calls = self.batch_calls
            batch_grouped = self.batch_grouped_jobs
            batch_max_width = self.batch_max_width
            lane_steps = self._batch_stats.get("lane_steps", 0)
            frozen_steps = self._batch_stats.get("frozen_steps", 0)
            twins = self._batch_stats.get("placement_twins", 0)
        total_steps = lane_steps + frozen_steps
        out: Dict[str, object] = {
            "workers": self.workers,
            "batch_size": self.batch_size,
            "batch_calls": batch_calls,
            "batch_grouped_jobs": batch_grouped,
            "batch_max_width": batch_max_width,
            "batch_padding_waste": (
                frozen_steps / total_steps if total_steps else 0.0
            ),
            "batch_placement_twins": twins,
            "jobs_run": jobs_run,
            "batches_run": batches_run,
            "pool_live": self._pool is not None,
            "workers_live": (
                self._pool.live_count() if self._pool is not None else 0
            ),
            "worker_restarts": restarts,
            "jobs_redispatched": redispatched,
            "poison_jobs": poisoned,
            "degraded": self.degraded,
        }
        if self.cache is not None:
            out["cache"] = self.cache.info()
        return out
