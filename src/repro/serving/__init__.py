"""Serving layer: batched, hot-swappable recipe recommendation at scale.

The training stack produces one aligned policy; this package turns it into
a *service* able to absorb many concurrent recommendation requests:

- :mod:`repro.serving.engine` — a grad-free incremental inference engine
  (KV-cached self-attention, constant-folded cross attention) that decodes
  a step in O(dim^2) per row instead of a full-sequence autograd forward.
- :mod:`repro.serving.batch_decode` — vectorized beam search advancing all
  beams of all in-flight requests as one fused frontier per step (provably
  equivalent to the reference per-beam loop).
- :mod:`repro.serving.scheduler` — dynamic micro-batching: bounded request
  queue, max-batch-size / max-wait-latency knobs, per-request deadlines,
  and admission control with backpressure.
- :mod:`repro.serving.cache` — LRU result cache keyed on the quantized
  insight vector, k and the model version.
- :mod:`repro.serving.registry` — versioned model registry with atomic
  zero-downtime hot-swap that invalidates the cache.
- :mod:`repro.serving.metrics` — counters and latency/occupancy histograms
  behind :meth:`RecommendationService.stats`.
- :mod:`repro.serving.service` — :class:`RecommendationService`, the
  composition of all of the above.
- :mod:`repro.serving.cluster` — :class:`ServingCluster`, the multi-replica
  async gateway: pluggable routing (:mod:`repro.serving.router`), watermark
  admission control with typed load shedding
  (:mod:`repro.serving.admission`), a cluster-shared L2 result cache over
  the replicas' L1s, canary/shadow rollout, and self-healing replica
  membership.

See ``docs/serving.md`` for the architecture walkthrough and
``benchmarks/bench_serving_throughput.py`` for the speedup evidence.
"""

from repro.serving.admission import AdmissionController
from repro.serving.batch_decode import (
    batched_beam_search,
    batched_greedy_decode,
    batched_sample_decode,
)
from repro.serving.cache import ResultCache, quantize_insight
from repro.serving.cluster import ClusterConfig, ServingCluster
from repro.serving.engine import DecodeState, InferenceEngine
from repro.serving.metrics import ServingMetrics
from repro.serving.registry import ModelRegistry
from repro.serving.router import (
    ROUTING_POLICIES,
    ConsistentHashRouter,
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
    router_for,
)
from repro.serving.scheduler import (
    MicroBatcher,
    RequestStatus,
    ServingConfig,
    Ticket,
)
from repro.serving.service import INITIAL_VERSION, RecommendationService

__all__ = [
    "INITIAL_VERSION",
    "ROUTING_POLICIES",
    "AdmissionController",
    "ClusterConfig",
    "ConsistentHashRouter",
    "DecodeState",
    "InferenceEngine",
    "LeastLoadedRouter",
    "MicroBatcher",
    "ModelRegistry",
    "RecommendationService",
    "RequestStatus",
    "ResultCache",
    "RoundRobinRouter",
    "Router",
    "ServingCluster",
    "ServingConfig",
    "ServingMetrics",
    "Ticket",
    "batched_beam_search",
    "batched_greedy_decode",
    "batched_sample_decode",
    "quantize_insight",
    "router_for",
]
