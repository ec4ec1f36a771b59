"""Resilience layer: supervised flow execution, fault injection, checkpoints.

This package is the spine between the learning loops and the (in production,
flaky and hours-long) P&R tool invocation:

- :mod:`repro.runtime.executor` — :class:`FlowExecutor` wraps ``run_flow``
  with per-run deadlines, bounded retries with exponential backoff + seeded
  jitter, and a typed failure taxonomy (``FlowTimeout`` / ``FlowCrash`` /
  ``CorruptQoR``, all :class:`~repro.errors.FlowError`).
- :mod:`repro.runtime.faults` — a deterministic, seedable
  :class:`FaultInjector` that makes the simulated tool misbehave on demand
  so every failure mode is testable.
- :mod:`repro.runtime.checkpoint` — atomic (temp file + ``os.replace``)
  training checkpoints enabling bit-identical crash/resume for offline
  alignment and the online loop.
- :mod:`repro.runtime.clock` — injectable virtual time so none of the above
  ever blocks a test on real wall-clock.
- :mod:`repro.runtime.cache` — :class:`QoRCache` persists successful
  results on disk so repeated evaluations are free.
- :mod:`repro.runtime.parallel` — the picklable work records
  :class:`FlowJob` and :class:`FaultPlan`.
- :mod:`repro.runtime.supervisor` — ``SupervisedPool``, the one
  process protocol (private command queue and result pipe per member,
  respawn budget, seeded kill chaos, bounded shutdown) shared by flow
  workers, online actors and serving replicas.
- :mod:`repro.runtime.session` — :class:`FlowSession` composes all of the
  above (policy, pool, cache, faults, tracing) behind one batch-first
  ``evaluate(jobs)`` API configured by a typed, validated
  :class:`RuntimeConfig`: it plans stacked batches, fans them out over a
  supervised process pool (deterministic at any worker count) and
  degrades when the pool cannot keep workers alive.  Every flow consumer
  in the repo goes through a session; nothing outside this package
  constructs an executor directly.

See ``docs/architecture.md`` for how the pieces compose and
``docs/robustness.md`` for the resilience story.
"""

from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    TrainingCheckpoint,
    atomic_pickle,
    checkpoint_digest,
    intern_keys,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.clock import RecordingSleep, VirtualClock
from repro.runtime.executor import (
    FlowAttempt,
    FlowExecutor,
    FlowRunReport,
    RetryPolicy,
)
from repro.errors import RuntimeConfigError, WorkerCrash, WorkerPoolError
from repro.runtime.faults import (
    IN_TOOL_KINDS,
    FaultInjector,
    FaultKind,
    SimulatedToolCrash,
    SimulatedWorkerDeath,
)
from repro.runtime.cache import QoRCache, qor_cache_key
from repro.runtime.parallel import FaultPlan, FlowJob
from repro.runtime.session import (
    FlowOutcome,
    FlowSession,
    RuntimeConfig,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "IN_TOOL_KINDS",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "FlowAttempt",
    "FlowExecutor",
    "FlowJob",
    "FlowOutcome",
    "FlowRunReport",
    "FlowSession",
    "QoRCache",
    "RecordingSleep",
    "RetryPolicy",
    "RuntimeConfig",
    "RuntimeConfigError",
    "SimulatedToolCrash",
    "SimulatedWorkerDeath",
    "TrainingCheckpoint",
    "VirtualClock",
    "WorkerCrash",
    "WorkerPoolError",
    "atomic_pickle",
    "checkpoint_digest",
    "intern_keys",
    "load_checkpoint",
    "qor_cache_key",
    "save_checkpoint",
]
