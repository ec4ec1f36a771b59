"""Serving metrics, backed by the unified observability registry.

:class:`ServingMetrics` is a thin facade: every counter and histogram is a
label-bound child of a process-wide ``serving_*`` family, labelled
``service=<id>`` so several co-resident services stay separable in one
Prometheus scrape, while :meth:`ServingMetrics.snapshot` — and therefore
``RecommendationService.stats()`` — builds the one plain-dict view of a
service's metrics.  The metric primitives themselves live only in
:mod:`repro.observability.metrics`; this module re-exports none of them.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Set

from repro.observability.metrics import MetricsRegistry, get_registry

_SERVICE_IDS = itertools.count()

def used_service_ids(registry: Optional[MetricsRegistry] = None) -> Set[str]:
    """Every ``service=`` label value present in any ``serving_*`` family.

    A fresh :class:`ServingMetrics` must never adopt one of these: binding
    to a label child that already carries a predecessor's counts would
    silently *merge* two services' totals, and any cross-service rollup
    would double-count the shared child.
    """
    reg = registry if registry is not None else get_registry()
    used: Set[str] = set()
    for name in reg.names():
        if not name.startswith("serving_"):
            continue
        family = reg.get(name)
        keys: Iterable = (
            family.label_keys() if family.kind == "histogram"
            else family.values()
        )
        for key in keys:
            for label, value in key:
                if label == "service":
                    used.add(value)
    return used


class ServingMetrics:
    """The fixed metric set a :class:`RecommendationService` maintains.

    Args:
        registry: Target :class:`MetricsRegistry`; defaults to the
            process-wide one, so ``repro obs report`` and the Prometheus
            renderer see every service automatically.
        service_id: Label value separating this service's children from
            other services in the same process (auto-assigned ``svcN``).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        service_id: Optional[str] = None,
    ) -> None:
        reg = registry if registry is not None else get_registry()
        self.registry = reg
        if service_id is None:
            # Auto ids skip label children the registry already carries
            # (a reused registry outliving the module counter — fresh
            # subprocess, reload, or a respawned replica reusing its id)
            # so two services never share — and therefore double-count —
            # one child.
            used = used_service_ids(reg)
            service_id = f"svc{next(_SERVICE_IDS)}"
            while service_id in used:
                service_id = f"svc{next(_SERVICE_IDS)}"
        self.service_id = service_id
        bind = {"service": self.service_id}
        self.submitted = reg.counter(
            "serving_requests_submitted_total", "requests admitted"
        ).bind(**bind)
        # Materialize the child immediately (a zero-increment) so this
        # service's id is visible to used_service_ids() from birth — not
        # only after its first request — keeping auto-id collision
        # avoidance airtight.
        self.submitted.inc(0)
        self.completed = reg.counter(
            "serving_requests_completed_total", "requests served"
        ).bind(**bind)
        self.expired = reg.counter(
            "serving_requests_expired_total", "requests past deadline"
        ).bind(**bind)
        self.rejected = reg.counter(
            "serving_requests_rejected_total", "requests shed at admission"
        ).bind(**bind)
        self.cache_hits = reg.counter(
            "serving_cache_hits_total", "result-cache hits"
        ).bind(**bind)
        self.cache_misses = reg.counter(
            "serving_cache_misses_total", "result-cache misses"
        ).bind(**bind)
        self.batches = reg.counter(
            "serving_batches_total", "micro-batches dispatched"
        ).bind(**bind)
        self.hot_swaps = reg.counter(
            "serving_hot_swaps_total", "model hot-swaps"
        ).bind(**bind)
        self.queue_wait_s = reg.histogram(
            "serving_queue_wait_seconds", "admission-to-dispatch wait"
        ).bind(**bind)
        self.latency_s = reg.histogram(
            "serving_request_latency_seconds", "admission-to-response"
        ).bind(**bind)
        self.batch_occupancy = reg.histogram(
            "serving_batch_occupancy", "batch fill fraction at dispatch"
        ).bind(**bind)
        self.queue_depth = reg.histogram(
            "serving_queue_depth_at_dispatch", "queue depth at dispatch"
        ).bind(**bind)

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view; safe to mutate, print, or serialize."""
        hit = self.cache_hits.value
        miss = self.cache_misses.value
        return {
            "requests": {
                "submitted": self.submitted.value,
                "completed": self.completed.value,
                "expired": self.expired.value,
                "rejected": self.rejected.value,
            },
            "batches": self.batches.value,
            "hot_swaps": self.hot_swaps.value,
            "cache": {
                "hits": hit,
                "misses": miss,
                "hit_rate": hit / (hit + miss) if hit + miss else 0.0,
            },
            "queue_wait_s": self.queue_wait_s.summary(),
            "latency_s": self.latency_s.summary(),
            "batch_occupancy": self.batch_occupancy.summary(),
            "queue_depth": self.queue_depth.summary(),
        }

