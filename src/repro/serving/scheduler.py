"""Dynamic micro-batching: the request queue and batch-formation policy.

Requests accumulate in a bounded FIFO queue.  A batch dispatches when either
(a) ``max_batch_size`` requests are waiting, or (b) the oldest waiting
request has waited ``max_wait_s`` — the classic throughput/latency knob
pair.  Admission control is strict: a full queue rejects new submissions
with :class:`~repro.errors.QueueFullError` so overload sheds load at the
edge instead of growing an unbounded backlog.  Per-request deadlines are
enforced at dispatch time: a request whose deadline has passed is expired,
never decoded.

Time is injectable (``clock`` returns seconds, monotonic), so the whole
policy is testable deterministically with
:class:`repro.runtime.clock.VirtualClock` — no test sleeps on real wall
time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, List, Optional

import numpy as np

from repro.errors import DeadlineExceededError, QueueFullError, ServingError


class RequestStatus(Enum):
    PENDING = "pending"
    COMPLETED = "completed"
    EXPIRED = "expired"


@dataclass
class ServingConfig:
    """Knobs for the micro-batching service.

    Attributes:
        max_batch_size: Most requests decoded in one ``batched_logits``
            frontier; also the occupancy denominator in metrics.
        max_wait_s: Longest the oldest request may wait before a partial
            batch dispatches anyway (the latency bound under light load).
        max_queue_depth: Admission-control limit; submissions beyond this
            raise :class:`QueueFullError`.
        default_deadline_s: Deadline applied to requests that do not carry
            their own (``None`` = no deadline).
        cache_capacity: LRU result-cache entries (0 disables caching).
        insight_decimals: Cache-key quantization of the insight vector.
        decode_latency_s: Wall-clock latency added (through the service's
            injectable ``sleep``) per decoded batch, modeling an attached
            accelerator's round-trip — the regime where multi-replica
            serving scales regardless of host core count.  Cache hits do
            not pay it.  0 (the default) for pure in-host decode.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.005
    max_queue_depth: int = 64
    default_deadline_s: Optional[float] = None
    cache_capacity: int = 256
    insight_decimals: int = 6
    decode_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ServingError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_s < 0:
            raise ServingError(f"max_wait_s must be >= 0, got {self.max_wait_s}")
        if self.max_queue_depth < 1:
            raise ServingError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.cache_capacity < 0:
            raise ServingError(
                f"cache_capacity must be >= 0, got {self.cache_capacity}"
            )
        if self.decode_latency_s < 0:
            raise ServingError(
                f"decode_latency_s must be >= 0, got {self.decode_latency_s}"
            )


# eq=False: tickets are identity objects (the insight ndarray would make a
# generated __eq__ ambiguous, and two requests are never "the same" anyway).
@dataclass(eq=False)
class Ticket:
    """A submitted request: the caller's handle to its eventual result."""

    request_id: int
    insight: np.ndarray
    k: int
    submitted_at: float
    deadline_at: Optional[float] = None
    # Canary/shadow hook: serve this request with a specific *registered*
    # model version instead of the active one (None = active).  The
    # active slot is untouched; see ModelRegistry.resolve().
    pinned_version: Optional[str] = None
    status: RequestStatus = RequestStatus.PENDING
    completed_at: Optional[float] = None
    cache_hit: bool = False
    _result: Optional[List] = field(default=None, repr=False)
    # The request's live ``serve.request`` span (admission -> response),
    # attached by the service when tracing is enabled.
    _span: Optional[object] = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        return self.status is not RequestStatus.PENDING

    def result(self) -> List:
        """The recommendations, or a typed error for unserved requests."""
        if self.status is RequestStatus.EXPIRED:
            raise DeadlineExceededError(
                f"request {self.request_id} expired before it was served"
            )
        if self.status is RequestStatus.PENDING:
            raise ServingError(
                f"request {self.request_id} is still pending; "
                "drive the service (poll/run_until_idle) first"
            )
        return self._result


class MicroBatcher:
    """Bounded FIFO queue + batch formation policy (pure, clock-driven)."""

    def __init__(self, config: ServingConfig) -> None:
        self.config = config
        self._queue: Deque[Ticket] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def depth(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    def submit(self, ticket: Ticket) -> None:
        """Admit a request or reject it with backpressure."""
        if len(self._queue) >= self.config.max_queue_depth:
            raise QueueFullError(
                f"queue full ({self.config.max_queue_depth} requests); "
                "retry after the service drains"
            )
        self._queue.append(ticket)

    # ------------------------------------------------------------------
    def expire_due(self, now: float) -> List[Ticket]:
        """Remove and mark every queued request whose deadline passed."""
        expired = [
            t for t in self._queue
            if t.deadline_at is not None and now >= t.deadline_at
        ]
        if expired:
            self._queue = deque(t for t in self._queue if t not in expired)
            for ticket in expired:
                ticket.status = RequestStatus.EXPIRED
                ticket.completed_at = now
        return expired

    def ready(self, now: float) -> bool:
        """Should a batch dispatch now?  (Full, or oldest waited enough.)"""
        if not self._queue:
            return False
        if len(self._queue) >= self.config.max_batch_size:
            return True
        oldest = self._queue[0]
        return now - oldest.submitted_at >= self.config.max_wait_s

    def next_due_in(self, now: float) -> Optional[float]:
        """Seconds until the pending batch is due (0 if due; None if idle)."""
        if not self._queue:
            return None
        if self.ready(now):
            return 0.0
        oldest = self._queue[0]
        due = oldest.submitted_at + self.config.max_wait_s
        if oldest.deadline_at is not None:
            due = min(due, oldest.deadline_at)
        return max(0.0, due - now)

    def take_batch(self, now: float, force: bool = False) -> List[Ticket]:
        """Expire overdue requests, then pop a batch if one is due.

        Returns the dispatched tickets (possibly empty when nothing is due
        and ``force`` is false).  Expired tickets are never dispatched.
        """
        self.expire_due(now)
        if not self._queue or (not force and not self.ready(now)):
            return []
        batch = []
        while self._queue and len(batch) < self.config.max_batch_size:
            batch.append(self._queue.popleft())
        return batch
