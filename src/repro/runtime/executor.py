"""Fault-tolerant flow execution: deadlines, bounded retries, typed errors.

``run_flow`` stands in for a commercial P&R invocation — in production the
flaky, hours-long external dependency.  :class:`FlowExecutor` is the
supervision layer between that call and everything that consumes QoR:

- **Per-run deadline** — a run whose wall-clock (per the injectable
  ``clock``) exceeds ``deadline_s`` is a :class:`~repro.errors.FlowTimeout`,
  even if it eventually returned.
- **Bounded retries** — up to ``policy.max_attempts`` tries with
  exponential backoff plus seeded jitter; the jitter stream is derived from
  ``seed`` so retry schedules are reproducible.
- **Typed failure taxonomy** — every failure surfaces as a
  :class:`~repro.errors.FlowError` subclass: :class:`FlowTimeout` /
  :class:`FlowCrash` / :class:`CorruptQoR`.  Unexpected exceptions (a tool
  crash) are wrapped into ``FlowCrash`` with the original as ``__cause__``;
  non-flow :class:`~repro.errors.ReproError`\\ s (e.g. a bad recipe set) are
  configuration bugs and propagate immediately without retry.
- **Result validation** — QoR dicts are re-checked for NaN/inf at this
  boundary and, when ``min_snapshots`` is set, truncated trajectories are
  rejected, so corrupt tool output cannot poison alignment scores.

Callers wanting exceptions use :meth:`FlowExecutor.execute`; callers doing
graceful degradation (the online loop) use :meth:`FlowExecutor.try_execute`
and inspect the returned :class:`FlowRunReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import FlowCrash, FlowError, FlowTimeout, ReproError
from repro.flow.parameters import FlowParameters
from repro.flow.result import FlowResult
from repro.observability import get_registry, get_tracer
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with multiplicative jitter.

    The delay before retry ``n`` (0-based) is
    ``min(max_delay_s, base_delay_s * multiplier**n)`` stretched by a
    uniform jitter in ``[0, jitter)`` of itself — the classic decorrelation
    that keeps a fleet of retrying clients from thundering in lockstep.
    """

    max_attempts: int = 3
    base_delay_s: float = 1.0
    multiplier: float = 2.0
    max_delay_s: float = 60.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("backoff delays cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_for(self, retry_index: int, rng) -> float:
        """Backoff before the ``retry_index``-th retry (0-based)."""
        raw = min(self.max_delay_s, self.base_delay_s * self.multiplier ** retry_index)
        return raw * (1.0 + self.jitter * float(rng.random()))


@dataclass
class FlowAttempt:
    """One try of one flow run, successful or not."""

    index: int
    error: Optional[FlowError]
    elapsed_s: float
    backoff_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class FlowRunReport:
    """Everything the executor observed while running one recipe set.

    ``cached`` marks results served from a persistent
    :class:`~repro.runtime.cache.QoRCache` instead of a live run; such
    reports carry no attempts and zero elapsed time.
    """

    design: str
    result: Optional[FlowResult] = None
    attempts: List[FlowAttempt] = field(default_factory=list)
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.result is not None

    @property
    def error(self) -> Optional[FlowError]:
        """The terminal failure (``None`` when the run succeeded)."""
        if self.ok or not self.attempts:
            return None
        return self.attempts[-1].error

    @property
    def total_elapsed_s(self) -> float:
        return sum(a.elapsed_s for a in self.attempts)


class FlowExecutor:
    """Supervised, retryable execution of a (possibly flaky) flow callable.

    Args:
        flow_fn: The tool invocation, ``(design, params, seed=...) ->
            FlowResult``.  Defaults to a width-1 stack of the batch engine
            (:func:`repro.flow.batch_runner.run_flow_lane`), bit-identical
            to the scalar :func:`repro.flow.runner.run_flow`.
            Wrap it with a :class:`~repro.runtime.faults.FaultInjector` to
            rehearse failure modes.
        policy: Retry/backoff schedule.
        deadline_s: Per-attempt wall-clock budget (``None`` = unlimited).
        min_snapshots: When set, results carrying fewer stage snapshots are
            rejected as :class:`~repro.errors.CorruptQoR` (partial report).
        clock: Monotonic time source; inject a
            :class:`~repro.runtime.clock.VirtualClock` in tests.
        sleep: Backoff sleeper; injectable for the same reason.
        seed: Seeds the jitter stream (reproducible retry schedules).
    """

    def __init__(
        self,
        flow_fn: Optional[Callable] = None,
        policy: RetryPolicy = RetryPolicy(),
        deadline_s: Optional[float] = None,
        min_snapshots: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        seed: int = 0,
    ) -> None:
        if flow_fn is None:
            from repro.flow.batch_runner import run_flow_lane

            flow_fn = run_flow_lane
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(f"deadline must be positive, got {deadline_s}")
        self.flow_fn = flow_fn
        self.policy = policy
        self.deadline_s = deadline_s
        self.min_snapshots = min_snapshots
        self.clock = clock
        self.sleep = sleep
        self._rng = derive_rng(seed, "flow-executor")

    # ------------------------------------------------------------------
    def execute(self, design, params: FlowParameters = FlowParameters(),
                seed: int = 0) -> FlowResult:
        """Run to success or raise the terminal typed :class:`FlowError`."""
        report = self.try_execute(design, params, seed=seed)
        if report.ok:
            return report.result
        raise report.error

    def try_execute(self, design, params: FlowParameters = FlowParameters(),
                    seed: int = 0) -> FlowRunReport:
        """Run with retries; never raises for tool failures.

        Every run is a ``flow.run`` span with one ``flow.attempt`` child
        per try, and feeds the ``flow_runs_total`` / ``flow_attempts_total``
        / ``flow_retries_total`` / ``flow_failures_total`` counters.
        Instrumentation never consumes RNG or the executor's injected
        clock, so retry schedules are identical with tracing on or off.
        """
        report = FlowRunReport(design=str(design))
        registry = get_registry()
        with get_tracer().span(
            "flow.run", design=report.design, seed=int(seed)
        ) as run_span:
            for index in range(self.policy.max_attempts):
                start = self.clock()
                attempt_span = get_tracer().span("flow.attempt", index=index)
                registry.counter("flow_attempts_total").inc()
                try:
                    with attempt_span:
                        try:
                            result = self._attempt(design, params, seed)
                        except FlowError as err:
                            failure = err
                            attempt_span.record_exception(err)
                        else:
                            failure = None
                except ReproError:
                    # Not tool flakiness — a mis-built netlist / recipe /
                    # config.  Retrying a deterministic bug wastes the whole
                    # backoff budget, so let it propagate untyped (the span
                    # context managers mark flow.run/flow.attempt failed).
                    raise
                except Exception as err:  # noqa: BLE001 - tool death is opaque
                    failure = FlowCrash(f"flow tool crashed: {err!r}")
                    failure.__cause__ = err
                if failure is None:
                    report.attempts.append(
                        FlowAttempt(index, None, self.clock() - start)
                    )
                    report.result = result
                    registry.counter("flow_runs_total").inc(status="ok")
                    run_span.set_attribute("attempts", index + 1)
                    return report
                registry.counter("flow_failures_total").inc(
                    type=type(failure).__name__
                )
                elapsed = self.clock() - start
                backoff = None
                if index + 1 < self.policy.max_attempts:
                    backoff = self.policy.delay_for(index, self._rng)
                report.attempts.append(
                    FlowAttempt(index, failure, elapsed, backoff)
                )
                if backoff is not None:
                    registry.counter("flow_retries_total").inc()
                    self.sleep(backoff)
            registry.counter("flow_runs_total").inc(status="failed")
            run_span.set_attributes(
                attempts=len(report.attempts), status="failed",
            )
            run_span.record_exception(report.error)
        return report

    # ------------------------------------------------------------------
    def _attempt(self, design, params, seed) -> FlowResult:
        """One supervised try: run, enforce deadline, validate output."""
        from repro.errors import CorruptQoR
        from repro.flow.runner import validate_qor

        start = self.clock()
        result = self.flow_fn(design, params, seed=seed)
        elapsed = self.clock() - start
        if self.deadline_s is not None and elapsed > self.deadline_s:
            raise FlowTimeout(
                f"flow run on {design!s} took {elapsed:.1f}s, "
                f"past the {self.deadline_s:.1f}s deadline"
            )
        validate_qor(result.qor, design=result.design)
        if (self.min_snapshots is not None
                and len(result.snapshots) < self.min_snapshots):
            raise CorruptQoR(
                f"flow run on {result.design} returned only "
                f"{len(result.snapshots)} stage snapshots "
                f"(expected >= {self.min_snapshots}): partial report"
            )
        return result
