"""The unified flow-evaluation runtime: ``RuntimeConfig`` + ``FlowSession``.

Four subsystems grew around the simulated P&R invocation — supervised
execution (:mod:`repro.runtime.executor`), process-pool batching and the
persistent QoR cache (:mod:`repro.runtime.parallel`), seeded fault
injection (:mod:`repro.runtime.faults`), and tracing/metrics
(:mod:`repro.observability`).  Before this module, every consumer wired
those together by hand: the online loop, the dataset builder, sweeps, the
baseline objectives and the CLI each carried their own
``workers``/``qor_cache_path`` plumbing and their own sequential-vs-batch
branch, while the cross-validation loop still called ``run_flow`` raw.

:class:`FlowSession` is the one composition point.  It owns the executor
policy (deadlines, bounded retries, backoff), the worker pool, the QoR
cache and the fault plan — all declared up front in a typed, validated
:class:`RuntimeConfig` — and exposes a batch-first API:

``session.evaluate(jobs)``
    Supervised batch; one :class:`FlowOutcome` per job, in submission
    order, tool failures captured (never raised).

``session.evaluate_strict(jobs)``
    All-or-nothing batch; :class:`~repro.flow.result.FlowResult` per job
    or the first failed job's typed :class:`~repro.errors.FlowError`.

``session.run(...)`` / ``session.execute(...)``
    Single-job conveniences over the same machinery.

Everything that made the per-call-site wiring safe is preserved exactly:
job identity is ``(design, params, seed)``; per-job randomness (retry
jitter, injected faults) is keyed by batch index, so results — including
typed errors under fault injection — are bit-identical at any worker
count; results come back in submission order; cache keys are unchanged.
``tests/test_session_equivalence.py`` asserts all of this against the
pre-session code paths.

Tests (and the online loop's ``executor=`` escape hatch) can inject a
fully-built :class:`~repro.runtime.executor.FlowExecutor` — closures,
virtual clocks and all — and the session degrades to the exact legacy
sequential loop: same shared jitter stream across jobs, no batch span.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.errors import RuntimeConfigError
from repro.flow.parameters import FlowParameters
from repro.flow.result import FlowResult
from repro.runtime.executor import FlowExecutor, FlowRunReport, RetryPolicy
from repro.runtime.parallel import (
    DEFAULT_BATCH_SIZE,
    FaultPlan,
    FlowJob,
    ParallelFlowExecutor,
    QoRCache,
)

# The session's batch outcome type IS the executor's run report — one
# name, one pickle layout, so cached entries and checkpoints written
# before the session layer existed stay readable after it.
FlowOutcome = FlowRunReport


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything a :class:`FlowSession` composes, validated up front.

    Replaces the ``workers=`` / ``qor_cache_path=`` / ``processes=``
    keyword plumbing that used to be repeated (slightly differently) at
    every flow call site.  Invalid combinations raise a typed
    :class:`~repro.errors.RuntimeConfigError` at construction time, before
    any flow runs.

    Args:
        workers: Process count for batch evaluation.  ``1`` (default)
            runs in-process — same per-job supervision, no pool.
        qor_cache_path: Directory for the persistent
            :class:`~repro.runtime.parallel.QoRCache`; ``None`` disables
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
            :class:`~repro.errors.WorkerPoolError`.
        batch_size: Most lanes per stacked (array-vectorized) flow
            evaluation, default 16.  Jobs sharing a design profile and
            netlist seed run as lanes of one ``run_flow_batch`` call per
            worker dispatch (at most ``ceil(n / workers)`` for ``n``
            pending jobs, so a small batch still reaches every worker).
            Width is 1 — each job on its own, still through the batch
            kernels — under a ``fault_plan``, ``deadline_s`` or
            ``watchdog_s`` (per-job policies), for a custom ``flow_fn``
            and for an injected executor.  Results are bit-identical at
            any width.
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
        if not isinstance(self.workers, int) or isinstance(self.workers, bool):
            raise RuntimeConfigError(
                f"workers must be an int, got {type(self.workers).__name__}"
            )
        if self.workers < 1:
            raise RuntimeConfigError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.qor_cache_path is not None and not isinstance(
            self.qor_cache_path, (str, os.PathLike)
        ):
            raise RuntimeConfigError(
                "qor_cache_path must be a path or None, got "
                f"{type(self.qor_cache_path).__name__}"
            )
        if not isinstance(self.policy, RetryPolicy):
            raise RuntimeConfigError(
                f"policy must be a RetryPolicy, got "
                f"{type(self.policy).__name__}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise RuntimeConfigError(
                f"deadline_s must be positive or None, got {self.deadline_s}"
            )
        if self.min_snapshots is not None and (
            not isinstance(self.min_snapshots, int) or self.min_snapshots < 0
        ):
            raise RuntimeConfigError(
                f"min_snapshots must be a non-negative int or None, "
                f"got {self.min_snapshots!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise RuntimeConfigError(
                f"seed must be an int, got {type(self.seed).__name__}"
            )
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, FaultPlan
        ):
            raise RuntimeConfigError(
                f"fault_plan must be a FaultPlan or None, got "
                f"{type(self.fault_plan).__name__}"
            )
        for name in ("max_respawns", "poison_retries"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise RuntimeConfigError(
                    f"{name} must be a non-negative int, got {value!r}"
                )
        if self.watchdog_s is not None and not self.watchdog_s > 0:
            raise RuntimeConfigError(
                f"watchdog_s must be positive or None, got {self.watchdog_s}"
            )
        if not isinstance(self.degrade_to_serial, bool):
            raise RuntimeConfigError(
                f"degrade_to_serial must be a bool, got "
                f"{type(self.degrade_to_serial).__name__}"
            )
        if not isinstance(self.batch_size, int) \
                or isinstance(self.batch_size, bool):
            raise RuntimeConfigError(
                f"batch_size must be an int, got "
                f"{type(self.batch_size).__name__}"
            )
        if self.batch_size < 1:
            raise RuntimeConfigError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )

    def replace(self, **overrides) -> "RuntimeConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)


class FlowSession:
    """One handle over supervised, cached, concurrent flow evaluation.

    Args:
        config: The validated :class:`RuntimeConfig` to compose.
        flow_fn: Tool invocation override ``(design, params, seed=...) ->
            FlowResult``, run one job at a time; must be picklable when
            ``config.workers > 1``.  ``None`` (default) runs the built-in
            stacked engine; ``flow_fn=run_flow`` selects the scalar
            reference (:func:`repro.flow.runner.run_flow`).
        executor: A pre-built :class:`FlowExecutor` (possibly carrying
            closures, virtual clocks, wrapped fault injectors) to run
            every job through sequentially — the exact legacy path,
            preserved for tests and the online loop's ``executor=``
            escape hatch.  Requires ``workers == 1``, no cache and no
            fault plan (those belong to the session, not the injected
            executor), and is mutually exclusive with ``flow_fn``; it
            runs one job at a time whatever ``config.batch_size`` says.
    """

    def __init__(
        self,
        config: RuntimeConfig = RuntimeConfig(),
        flow_fn: Optional[Callable] = None,
        executor: Optional[FlowExecutor] = None,
    ) -> None:
        if not isinstance(config, RuntimeConfig):
            raise RuntimeConfigError(
                f"config must be a RuntimeConfig, got "
                f"{type(config).__name__}"
            )
        if executor is not None:
            if flow_fn is not None:
                raise RuntimeConfigError(
                    "pass flow_fn or a pre-built executor, not both"
                )
            if config.workers != 1:
                raise RuntimeConfigError(
                    "an injected executor runs in-process; it cannot be "
                    f"combined with workers={config.workers}"
                )
            if config.qor_cache_path is not None:
                raise RuntimeConfigError(
                    "an injected executor bypasses the session's QoR "
                    "cache; drop qor_cache_path or the executor"
                )
            if config.fault_plan is not None:
                raise RuntimeConfigError(
                    "fault injection for an injected executor belongs in "
                    "the executor itself, not the session's fault_plan"
                )
            if config.watchdog_s is not None:
                raise RuntimeConfigError(
                    "the supervision watchdog applies to session-owned "
                    "workers; an injected executor bypasses it — drop "
                    "watchdog_s or the executor"
                )
        self.config = config
        self._injected = executor
        self._parallel: Optional[ParallelFlowExecutor] = None
        if executor is None:
            self._parallel = ParallelFlowExecutor(
                workers=config.workers,
                flow_fn=flow_fn,
                policy=config.policy,
                deadline_s=config.deadline_s,
                min_snapshots=config.min_snapshots,
                seed=config.seed,
                cache=config.qor_cache_path,
                fault_plan=config.fault_plan,
                max_respawns=config.max_respawns,
                poison_retries=config.poison_retries,
                watchdog_s=config.watchdog_s,
                degrade_to_serial=config.degrade_to_serial,
                batch_size=config.batch_size,
            )

    # ------------------------------------------------------------------
    def evaluate(self, jobs: Sequence) -> List[FlowOutcome]:
        """Supervised batch evaluation, outcomes in submission order.

        Accepts :class:`~repro.runtime.parallel.FlowJob`\\ s or
        ``(design, params, seed)`` tuples.  Tool failures are captured in
        each outcome (``outcome.ok`` / ``outcome.error``); non-flow
        :class:`~repro.errors.ReproError`\\ s — configuration bugs — still
        propagate immediately.
        """
        if self._injected is not None:
            coerced = [ParallelFlowExecutor._coerce(job) for job in jobs]
            return [
                self._injected.try_execute(
                    job.design, job.params, seed=job.seed
                )
                for job in coerced
            ]
        return self._parallel.run_batch(jobs)

    def evaluate_at(
        self, job, index: int = 0, dispatch: int = 0
    ) -> FlowOutcome:
        """Evaluate one job exactly as position ``index`` of a batch.

        This is the distributed actors' door: per-job randomness is keyed
        by the *global* batch index, so an actor that owns proposal
        ``index`` of an iteration produces the bit-identical outcome
        :meth:`evaluate` would have produced at that position of the full
        batch.  ``dispatch`` counts prior dispatch attempts of the same
        logical job (a previous owner died holding it) and perturbs only
        the fault-injection stream — see
        :meth:`ParallelFlowExecutor.run_at`.
        """
        if self._injected is not None:
            job = ParallelFlowExecutor._coerce(job)
            return self._injected.try_execute(
                job.design, job.params, seed=job.seed
            )
        return self._parallel.run_at(job, index=index, dispatch=dispatch)

    def evaluate_strict(self, jobs: Sequence) -> List[FlowResult]:
        """All-or-nothing batch: results in submission order, or the
        first failed job's terminal typed :class:`~repro.errors.FlowError`
        (by submission order, not completion order)."""
        outcomes = self.evaluate(jobs)
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.error
        return [outcome.result for outcome in outcomes]

    # -- single-job conveniences ---------------------------------------
    def run(
        self,
        design,
        params: FlowParameters = FlowParameters(),
        seed: int = 0,
    ) -> FlowOutcome:
        """Supervise one flow run; never raises for tool failures."""
        return self.evaluate([FlowJob(design, params, seed)])[0]

    def execute(
        self,
        design,
        params: FlowParameters = FlowParameters(),
        seed: int = 0,
    ) -> FlowResult:
        """One flow run to success, or the terminal typed
        :class:`~repro.errors.FlowError`."""
        return self.evaluate_strict([FlowJob(design, params, seed)])[0]

    # ------------------------------------------------------------------
    @property
    def cache(self) -> Optional[QoRCache]:
        """The session's persistent QoR cache (``None`` when disabled)."""
        if self._parallel is None:
            return None
        return self._parallel.cache

    def stats(self) -> Dict[str, object]:
        """Runtime counters: workers, jobs/batches run, cache occupancy."""
        if self._parallel is not None:
            return self._parallel.stats()
        return {"workers": 1, "pool_live": False, "injected": True}

    def close(self) -> None:
        """Release the worker pool, if one was started (idempotent)."""
        if self._parallel is not None:
            self._parallel.close()

    def __enter__(self) -> "FlowSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
