"""The batched, hot-swappable recommendation service.

:class:`RecommendationService` composes the serving layer:

- a :class:`~repro.serving.scheduler.MicroBatcher` queueing requests with
  max-batch-size / max-wait knobs, deadlines and admission control;
- the vectorized :func:`~repro.serving.batch_decode.batched_beam_search`
  decoding every beam of every dispatched request in one
  ``batched_logits`` call per step;
- a :class:`~repro.serving.cache.ResultCache` (LRU, keyed on quantized
  insight + k + model version);
- a :class:`~repro.serving.registry.ModelRegistry` whose atomic hot-swap
  invalidates the cache;
- a :class:`~repro.serving.metrics.ServingMetrics` set surfaced through
  :meth:`RecommendationService.stats`.

The service is synchronous and clock-driven: ``submit`` enqueues and
returns a :class:`~repro.serving.scheduler.Ticket`; ``poll`` dispatches at
most one due batch; ``run_until_idle`` drives the queue dry, sleeping (via
the injectable ``sleep``) until the next batch is due.  With the default
``time.monotonic``/``time.sleep`` pair this serves real traffic from a
driver loop; with :class:`~repro.runtime.clock.VirtualClock` every policy
decision is deterministic and instant in tests.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, List, Optional, Union

import numpy as np

from repro.core.recommender import InsightAlign, Recommendation
from repro.errors import ServingError
from repro.observability import get_tracer
from repro.serving.batch_decode import as_count, batched_beam_search
from repro.serving.cache import ResultCache
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry, ModelSource
from repro.serving.scheduler import (
    MicroBatcher,
    RequestStatus,
    ServingConfig,
    Ticket,
)

INITIAL_VERSION = "v1"


def check_request(registry: ModelRegistry, version: str, insight,
                  k) -> tuple:
    """Refuse a malformed request before any work is done for it.

    Returns the insight as a float64 copy and ``k`` as an ``int``.  Raises
    ``ValueError`` unless ``k`` is an integer value >= 1, and
    :class:`ServingError` unless the insight is ``insight_dims`` finite
    values for ``version``'s model.
    """
    k = as_count(k, "k")
    insight = np.array(insight, dtype=np.float64)
    dims = registry.resolve(version).model.insight_dims
    if insight.shape != (dims,) or not np.isfinite(insight).all():
        raise ServingError(f"insight of shape {insight.shape} is not "
                           f"{dims} finite values for model {version!r}")
    return insight, k


class RecommendationService:
    """Serve top-K recipe-set recommendations under heavy concurrency."""

    def __init__(
        self,
        model: Union[InsightAlign, ModelRegistry],
        config: ServingConfig = ServingConfig(),
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        cache: Optional[ResultCache] = None,
        service_id: Optional[str] = None,
    ) -> None:
        """``cache`` is the shared-cache hook: pass an external
        :class:`ResultCache` (e.g. a cluster's shared L2) and the service
        uses it instead of building a private L1 — keys embed the model
        version, so sharing across services is always coherent.
        ``service_id`` pins the metrics label (auto ``svcN`` otherwise)."""
        self.config = config
        self.clock = clock
        self.sleep = sleep
        if isinstance(model, ModelRegistry):
            self.registry = model
        else:
            self.registry = ModelRegistry()
            self.registry.register(INITIAL_VERSION, model)
            self.registry.activate(INITIAL_VERSION)
        self.metrics = ServingMetrics(service_id=service_id)
        self.cache = cache if cache is not None else ResultCache(
            capacity=config.cache_capacity,
            insight_decimals=config.insight_decimals,
        )
        self.registry.subscribe(self._on_swap)
        self._batcher = MicroBatcher(config)
        self._next_id = 0

    # -- model lifecycle ------------------------------------------------
    def register_model(self, version: str, source: ModelSource) -> None:
        """Make a new model version available for hot-swap."""
        self.registry.register(version, source)

    def hot_swap(self, version: str) -> str:
        """Atomically activate ``version``; the result cache is dropped."""
        self.registry.activate(version)
        return version

    def _on_swap(self, version: str) -> None:
        self.cache.invalidate()
        self.metrics.hot_swaps.inc()

    # -- request path ---------------------------------------------------
    def submit(
        self,
        insight: np.ndarray,
        k: int = 5,
        deadline_s: Optional[float] = None,
        model_version: Optional[str] = None,
    ) -> Ticket:
        """Enqueue a request; raises ``QueueFullError`` under overload, and
        ``ServingError`` for an insight the resolved model cannot decode.

        Args:
            insight: The design-insight vector.
            k: Beam width / number of recipe sets wanted.
            deadline_s: Seconds from now after which the request must not
                be served (falls back to ``config.default_deadline_s``).
            model_version: Pin this request to a registered (not
                necessarily active) model version — the canary/shadow
                hook.  ``None`` serves on whatever version is active at
                dispatch time.
        """
        version = model_version or self.registry.active_version
        insight, k = check_request(self.registry, version, insight, k)
        now = self.clock()
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        ticket = Ticket(
            request_id=self._next_id,
            insight=insight,
            k=k,
            submitted_at=now,
            deadline_at=None if deadline_s is None else now + deadline_s,
            pinned_version=model_version,
        )
        try:
            self._batcher.submit(ticket)
        except Exception:
            self.metrics.rejected.inc()
            raise
        self._next_id += 1
        self.metrics.submitted.inc()
        tracer = get_tracer()
        if tracer.enabled:
            # A detached span covering the request's whole lifecycle:
            # admission here, batch decode and response in poll().
            ticket._span = tracer.start_span(
                "serve.request", request_id=ticket.request_id, k=ticket.k
            )
        return ticket

    @property
    def queue_depth(self) -> int:
        return self._batcher.depth

    # -- dispatch -------------------------------------------------------
    def poll(self, force: bool = False) -> int:
        """Dispatch at most one due batch; returns requests settled.

        Settled = completed or expired.  With ``force`` a partial batch
        dispatches immediately regardless of ``max_wait_s``.
        """
        now = self.clock()
        depth_before = self._batcher.depth
        expired_tickets = self._batcher.expire_due(now)
        for ticket in expired_tickets:
            self._end_request_span(ticket, "expired")
        batch = self._batcher.take_batch(now, force=force)
        expired = len(expired_tickets)
        if expired:
            self.metrics.expired.inc(expired)
        if not batch:
            return expired

        self.metrics.batches.inc()
        self.metrics.queue_depth.observe(depth_before)
        self.metrics.batch_occupancy.observe(
            len(batch) / self.config.max_batch_size
        )
        for ticket in batch:
            self.metrics.queue_wait_s.observe(now - ticket.submitted_at)

        tracer = get_tracer()
        with tracer.span(
            "serve.batch", size=len(batch), queue_depth=depth_before
        ) as batch_span:
            active_version, _ = self.registry.active()
            misses: List[Ticket] = []
            # Pinned requests (canary/shadow) decode on their pinned
            # version; everyone else on the active one.  Cache keys use
            # the resolved version, so pinned and active traffic never
            # cross-contaminate entries.
            for ticket in batch:
                resolved = ticket.pinned_version or active_version
                key = self.cache.key(resolved, ticket.insight, ticket.k)
                cached = self.cache.get(key)
                if cached is not None:
                    ticket._result = cached
                    ticket.cache_hit = True
                    self.metrics.cache_hits.inc()
                else:
                    misses.append(ticket)
                    self.metrics.cache_misses.inc()
            batch_span.set_attribute("cache_hits", len(batch) - len(misses))

            if misses:
                groups: "OrderedDict[str, List[Ticket]]" = OrderedDict()
                for ticket in misses:
                    resolved = ticket.pinned_version or active_version
                    groups.setdefault(resolved, []).append(ticket)
                with tracer.span(
                    "serve.decode", rows=len(misses), versions=len(groups)
                ):
                    for resolved, group in groups.items():
                        self._decode_group(resolved, group)
                if self.config.decode_latency_s:
                    self.sleep(self.config.decode_latency_s)

        done_at = self.clock()
        for ticket in batch:
            ticket.status = RequestStatus.COMPLETED
            ticket.completed_at = done_at
            self.metrics.completed.inc()
            self.metrics.latency_s.observe(done_at - ticket.submitted_at)
            self._end_request_span(ticket, "completed")
        return expired + len(batch)

    def _decode_group(self, version: str, group: List[Ticket]) -> None:
        """Batched beam search for every ticket resolved to ``version``."""
        recommender = self.registry.resolve(version)
        insights = np.stack([t.insight for t in group])
        widths = [t.k for t in group]
        decoded = batched_beam_search(recommender.model, insights, widths)
        names = recommender.catalog.names()
        for ticket, candidates in zip(group, decoded):
            result = [
                Recommendation(
                    recipe_set=bits,
                    log_prob=log_prob,
                    recipe_names=[
                        names[i] for i, bit in enumerate(bits) if bit
                    ],
                )
                for bits, log_prob in candidates
            ]
            ticket._result = result
            self.cache.put(
                self.cache.key(version, ticket.insight, ticket.k), result
            )

    @staticmethod
    def _end_request_span(ticket: Ticket, outcome: str) -> None:
        span = ticket._span
        if span is not None:
            span.set_attribute("outcome", outcome)
            span.set_attribute("cache_hit", ticket.cache_hit)
            if outcome == "expired":
                span.status = "error"
                span.error = "DeadlineExceededError: expired before dispatch"
            span.end()
            ticket._span = None

    def run_until_idle(self, max_batches: int = 10_000) -> int:
        """Drive the queue dry; returns requests settled.

        Sleeps (through the injectable ``sleep``) whenever no batch is due
        yet, so a partial batch still dispatches after ``max_wait_s``.
        """
        settled = 0
        for _ in range(max_batches):
            if self._batcher.depth == 0:
                return settled
            processed = self.poll()
            settled += processed
            if processed == 0:
                wait = self._batcher.next_due_in(self.clock())
                if wait:
                    self.sleep(wait)
        raise RuntimeError(f"queue not drained after {max_batches} batches")

    def flush(self) -> int:
        """Force-dispatch everything queued (ignores ``max_wait_s``)."""
        settled = 0
        while self._batcher.depth:
            settled += self.poll(force=True)
        return settled

    # -- observability --------------------------------------------------
    def stats(self) -> dict:
        """A point-in-time snapshot of every serving metric."""
        snapshot = self.metrics.snapshot()
        snapshot["model_version"] = self.registry.active_version
        snapshot["queue_depth_now"] = self._batcher.depth
        snapshot["cache"].update(self.cache.stats())
        return snapshot
