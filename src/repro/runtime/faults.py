"""Deterministic fault injection for the simulated P&R tool.

In a real deployment the flow invocation is the flaky, hours-long external
dependency: the tool crashes, hangs past its deadline, or emits corrupt
reports.  The simulated flow in :mod:`repro.flow.runner` never misbehaves,
so this module makes it misbehave *on demand* — a seeded
:class:`FaultInjector` wraps any flow callable and, at a configured rate,
replaces the call's outcome with one of four failure modes:

- ``CRASH``            — the tool process dies (an opaque ``RuntimeError``).
- ``HANG``             — the run takes ``hang_s`` longer than usual; paired
  with a shared :class:`~repro.runtime.clock.VirtualClock` this pushes the
  executor past its deadline without real waiting.
- ``CORRUPT_QOR``      — the run "succeeds" but one QoR metric is NaN.
- ``PARTIAL_SNAPSHOT`` — the run returns with a truncated stage trajectory
  (the tool was killed mid-flow but left a half-written report).

Two further *process-level* modes rehearse failures that no in-process
``except`` clause can see — the OOM killer, a segfault, a tool that wedges
forever.  They are opt-in (never part of the default ``kinds``) because
they take down the executing process itself, and only the supervised
worker pool of :class:`~repro.runtime.session.FlowSession` can recover
from them:

- ``WORKER_KILL``  — inside a pool worker the process dies for real
  (``os._exit(139)``, mimicking a segfault); in-process it raises the
  uncatchable-by-``except Exception`` :class:`SimulatedWorkerDeath` so the
  serial supervision path can rehearse identical poison/redispatch
  accounting without killing the interpreter.
- ``WORKER_STALL`` — the call really sleeps ``stall_s`` wall-clock seconds
  (no virtual clock: a stalled worker is only observable from outside),
  which is what the pool supervisor's watchdog exists to catch.

Every decision is drawn from a private :func:`~repro.utils.rng.derive_rng`
stream, so a given ``(seed, call-sequence)`` always produces the same fault
schedule — failure-path tests are exactly reproducible.
"""

from __future__ import annotations

import enum
import math
import os
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.runtime.clock import VirtualClock
from repro.utils.rng import derive_rng


class FaultKind(enum.Enum):
    """The ways the simulated tool can misbehave."""

    CRASH = "crash"
    HANG = "hang"
    CORRUPT_QOR = "corrupt_qor"
    PARTIAL_SNAPSHOT = "partial_snapshot"
    WORKER_KILL = "worker_kill"
    WORKER_STALL = "worker_stall"


#: The in-tool fault modes — the default draw set.  The process-level kinds
#: (``WORKER_KILL`` / ``WORKER_STALL``) are excluded so existing seeded
#: schedules are unchanged and nothing kills a process unless explicitly
#: asked to.
IN_TOOL_KINDS: Tuple[FaultKind, ...] = (
    FaultKind.CRASH,
    FaultKind.HANG,
    FaultKind.CORRUPT_QOR,
    FaultKind.PARTIAL_SNAPSHOT,
)


# Set (via mark_pool_worker) in the main of every supervised pool worker so
# WORKER_KILL knows whether it may genuinely kill the process.
_IN_POOL_WORKER = False


def mark_pool_worker(active: bool = True) -> None:
    """Flag this process as a supervised pool worker (process-level faults
    then take the real-death path instead of the simulated one)."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = bool(active)


def in_pool_worker() -> bool:
    return _IN_POOL_WORKER


class SimulatedToolCrash(RuntimeError):
    """The opaque, untyped error a dying external tool would surface.

    Deliberately *not* a :class:`~repro.errors.ReproError`: the executor is
    expected to translate unexpected exceptions into ``FlowCrash``.
    """


class SimulatedWorkerDeath(BaseException):
    """In-process stand-in for the worker process dying outright.

    Derives from :class:`BaseException` on purpose: a real worker death is
    invisible to every ``except Exception`` handler in the worker —
    including the :class:`~repro.runtime.executor.FlowExecutor` retry loop —
    so its simulation must fly past them too and only be caught by the
    process-level supervision of
    :class:`~repro.runtime.session.FlowSession`.
    """


class FaultInjector:
    """Wraps a flow callable and injects seeded, reproducible faults.

    Args:
        rate: Probability in ``[0, 1]`` that any given call misbehaves.
        kinds: Fault modes to draw from (uniformly); default the four
            in-tool modes (:data:`IN_TOOL_KINDS`).  The process-level
            ``WORKER_KILL`` / ``WORKER_STALL`` modes must be requested
            explicitly.
        seed: Seeds the private decision stream.
        hang_s: Simulated extra latency of a ``HANG`` fault.
        stall_s: Real wall-clock sleep of a ``WORKER_STALL`` fault.
        clock: Clock advanced by ``HANG`` faults.  Share this instance with
            the executor so hangs are observable as deadline overruns; a
            private clock is created when omitted (hangs then only show up
            in :attr:`history`).
    """

    def __init__(
        self,
        rate: float = 0.0,
        kinds: Optional[Sequence[FaultKind]] = None,
        seed: int = 0,
        hang_s: float = 3600.0,
        stall_s: float = 30.0,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self.kinds: Tuple[FaultKind, ...] = (
            IN_TOOL_KINDS if kinds is None else tuple(kinds)
        )
        if not self.kinds:
            raise ValueError("fault injector needs at least one fault kind")
        self.hang_s = float(hang_s)
        self.stall_s = float(stall_s)
        self.clock = clock if clock is not None else VirtualClock()
        self._rng = derive_rng(seed, "fault-injector")
        self.calls = 0
        self.history: List[Tuple[int, Optional[FaultKind]]] = []

    # ------------------------------------------------------------------
    @property
    def fault_count(self) -> int:
        return sum(1 for _, kind in self.history if kind is not None)

    def draw(self) -> Optional[FaultKind]:
        """Decide (and record) whether the next call misbehaves, and how."""
        index = self.calls
        self.calls += 1
        kind: Optional[FaultKind] = None
        if self._rng.random() < self.rate:
            kind = self.kinds[int(self._rng.integers(0, len(self.kinds)))]
        self.history.append((index, kind))
        return kind

    def wrap(self, flow_fn: Callable) -> Callable:
        """Return ``flow_fn`` with this injector's misbehaviour layered on."""

        def faulty_flow(*args, **kwargs):
            kind = self.draw()
            if kind is FaultKind.CRASH:
                raise SimulatedToolCrash(
                    "simulated P&R tool crashed (exit code 139)"
                )
            if kind is FaultKind.WORKER_KILL:
                if in_pool_worker():
                    # Die for real: no result, no exception, no cleanup —
                    # exactly what the supervisor must recover from.
                    os._exit(139)
                raise SimulatedWorkerDeath(
                    "simulated worker death (OOM kill / segfault)"
                )
            if kind is FaultKind.WORKER_STALL:
                # A stall is real wall time by design: it is only
                # observable from outside the process, by the watchdog.
                time.sleep(self.stall_s)
                return flow_fn(*args, **kwargs)
            if kind is FaultKind.HANG:
                self.clock.sleep(self.hang_s)
                return flow_fn(*args, **kwargs)
            result = flow_fn(*args, **kwargs)
            if kind is FaultKind.CORRUPT_QOR:
                return self._corrupt_qor(result)
            if kind is FaultKind.PARTIAL_SNAPSHOT:
                return self._truncate_snapshots(result)
            return result

        return faulty_flow

    # ------------------------------------------------------------------
    def _corrupt_qor(self, result):
        """Poison one metric with NaN (in place; the run is already lost)."""
        keys = sorted(result.qor)
        if keys:
            victim = keys[int(self._rng.integers(0, len(keys)))]
            result.qor[victim] = math.nan
        return result

    def _truncate_snapshots(self, result):
        """Drop the tail of the stage trajectory (tool killed mid-flow)."""
        if result.snapshots:
            keep = max(1, len(result.snapshots) // 2)
            result.snapshots = result.snapshots[:keep]
        return result
