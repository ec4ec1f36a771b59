"""The picklable records of flow work: :class:`FlowJob` and :class:`FaultPlan`.

These are the values that cross every boundary of the flow runtime — into
:meth:`~repro.runtime.session.FlowSession.evaluate`, through the
supervised worker pool's command queues, into online-loop checkpoints —
so they live apart from the session that runs them.
:data:`DEFAULT_BATCH_SIZE` is the session's default stack width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.flow.parameters import FlowParameters
from repro.runtime.faults import FaultKind

# Most lanes per stacked flow evaluation unless configured otherwise.
DEFAULT_BATCH_SIZE = 16


@dataclass(frozen=True)
class FlowJob:
    """One unit of flow work: a (design, parameters, seed) triple."""

    design: str
    params: FlowParameters = field(default_factory=FlowParameters)
    seed: int = 0


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
