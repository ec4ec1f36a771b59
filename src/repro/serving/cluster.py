"""The multi-replica serving cluster: an async gateway over N services.

One :class:`~repro.serving.service.RecommendationService` caps throughput
at a single process's decode rate and has no overload story beyond its
own bounded queue.  :class:`ServingCluster` is the scale-out layer:

- an **event-loop frontend** (``await cluster.submit(...)``) owning a
  pool of replicas, each a full ``RecommendationService`` — in a child
  process (``backend="process"``, true parallel decode) or in-process
  (``backend="inline"``, deterministic tests and the degrade target);
- **pluggable routing** (:mod:`repro.serving.router`): least-loaded,
  consistent-hash on the quantized insight key (cache-affine requests
  land on warm replicas), or round-robin;
- a **tiered result cache**: each replica keeps its private L1
  (:class:`~repro.serving.cache.ResultCache` inside its service), the
  gateway keeps a cluster-shared L2 consulted before routing and filled
  from every response, with versioned invalidation
  (:meth:`~repro.serving.cache.ResultCache.purge_version`) on hot-swap;
- **admission control** (:mod:`repro.serving.admission`): once accepted
  work crosses ``shed_watermark`` new arrivals are rejected immediately
  with the typed :class:`~repro.errors.OverloadedError` — load sheds at
  the edge in microseconds instead of burning deadlines in a queue;
- **canary / shadow rollout** through the shared
  :class:`~repro.serving.registry.ModelRegistry`: a deterministic
  fraction of traffic is pinned to a registered-but-inactive version
  (canary), or mirrored to it for comparison without affecting responses
  (shadow);
- **self-healing membership**: process replicas are members of a
  :class:`~repro.runtime.supervisor.SupervisedPool` (private command
  queue and result pipe, death as pipe EOF, restart budget, seeded kill
  chaos, bounded shutdown).  The gateway adds per-replica reader threads
  that post to the event loop, routing slots keyed by replica id, and
  re-dispatch of a dead replica's in-flight requests — an accepted
  request is never lost.

Correctness invariant: the gateway resolves every request's model version
at admission and pins the replica decode to it, so the L2 key, the L1 key
and the decoding model always agree — even mid-hot-swap — and cluster
responses are bit-identical to single-replica serving under any routing
policy at any replica count.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.recommender import InsightAlign
from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    QueueFullError,
    ServingError,
)
from repro.observability import get_registry, get_tracer
from repro.runtime.supervisor import Chaos, Member, RemoteError, SupervisedPool
from repro.serving.admission import AdmissionController
from repro.serving.cache import ResultCache, quantize_insight
from repro.serving.registry import ModelRegistry, ModelSource
from repro.serving.router import ROUTING_POLICIES, _hash64, router_for
from repro.serving.scheduler import RequestStatus, ServingConfig
from repro.serving.service import (
    INITIAL_VERSION,
    RecommendationService,
    check_request,
)

#: Exit code of a chaos-killed replica (distinct from real crashes).
KILL_EXIT_CODE = 23

REPLICA_BACKENDS = ("process", "inline")


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the serving cluster (frozen, validated).

    Attributes:
        replicas: Number of replica services in the pool.
        routing: Routing policy name (see
            :data:`~repro.serving.router.ROUTING_POLICIES`).
        backend: ``"process"`` decodes in child processes (true
            parallelism, chaos-killable); ``"inline"`` keeps replicas in
            the gateway process (deterministic, no IPC).
        shed_watermark: Most accepted-but-unfinished requests before
            admission sheds with :class:`OverloadedError`.
        l2_capacity: Entries in the cluster-shared L2 result cache
            (0 disables the L2 tier).
        canary_version: Registered model version receiving canary or
            shadow traffic (``None`` = no rollout in progress).
        canary_fraction: Deterministic fraction of traffic assigned to
            the canary (by hash of the quantized insight, so one design's
            queries are consistently canaried).
        shadow: Mirror the canary fraction to the canary version and
            count result mismatches, while every response still comes
            from the active version.
        kill_rate: Chaos rehearsal — per-request probability that the
            serving replica process dies mid-flight (process backend).
        kill_seed: Seed of the deterministic chaos-kill schedule.
        max_replica_restarts: Replica deaths absorbed (with respawn)
            before the cluster stops healing; with no replica left it
            degrades to in-gateway serving.
    """

    replicas: int = 2
    routing: str = "least-loaded"
    backend: str = "process"
    shed_watermark: int = 256
    l2_capacity: int = 2048
    canary_version: Optional[str] = None
    canary_fraction: float = 0.0
    shadow: bool = False
    kill_rate: float = 0.0
    kill_seed: int = 0
    max_replica_restarts: int = 8

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ServingError(f"replicas must be >= 1, got {self.replicas}")
        if self.routing not in ROUTING_POLICIES:
            raise ServingError(
                f"unknown routing policy {self.routing!r}; "
                f"choose from {sorted(ROUTING_POLICIES)}"
            )
        if self.backend not in REPLICA_BACKENDS:
            raise ServingError(
                f"unknown backend {self.backend!r}; "
                f"choose from {sorted(REPLICA_BACKENDS)}"
            )
        if self.shed_watermark < 1:
            raise ServingError(
                f"shed_watermark must be >= 1, got {self.shed_watermark}"
            )
        if self.l2_capacity < 0:
            raise ServingError(
                f"l2_capacity must be >= 0, got {self.l2_capacity}"
            )
        if not 0.0 <= self.canary_fraction <= 1.0:
            raise ServingError(
                f"canary_fraction must be in [0, 1], "
                f"got {self.canary_fraction}"
            )
        if (self.canary_fraction > 0 or self.shadow) \
                and not self.canary_version:
            raise ServingError(
                "canary_fraction/shadow need a canary_version"
            )
        if not 0.0 <= self.kill_rate < 1.0:
            raise ServingError(
                f"kill_rate must be in [0, 1), got {self.kill_rate}"
            )
        if self.kill_rate > 0 and self.backend != "process":
            raise ServingError(
                "replica-kill chaos needs backend='process' "
                "(inline replicas share the gateway process)"
            )
        if self.max_replica_restarts < 0:
            raise ServingError(
                f"max_replica_restarts must be >= 0, "
                f"got {self.max_replica_restarts}"
            )


@dataclass(frozen=True)
class _ReplicaSpec:
    """Everything a replica process needs, all picklable."""

    sources: Dict[str, ModelSource]
    active_version: str
    serving: ServingConfig
    kill_rate: float = 0.0
    kill_seed: int = 0


@dataclass(eq=False)
class _ClusterRequest:
    """One accepted request's gateway-side state."""

    rid: int
    insight: np.ndarray
    k: int
    version: str                   # resolved at admission; pins the decode
    key: tuple                     # L2 cache key (version, k, quantized)
    route_key: bytes               # quantized insight bytes (affinity)
    deadline_s: Optional[float]
    future: "asyncio.Future"
    shadow: bool = False
    dispatch: int = 0
    _l1_hit: bool = field(default=False, repr=False)


def _replica_main(replica_id: int, spawn: int, cmd_queue, result_conn,
                  spec: _ReplicaSpec) -> None:
    """Main of one replica process.

    Greedily drains its command queue each wake-up, submits every pending
    request to its private :class:`RecommendationService` (one flush
    decodes them as micro-batches), then answers each with one
    synchronous pipe send — a replica killed mid-batch can neither lose a
    result it already sent nor wedge the gateway.  Requests arrive with
    their model version pinned by the gateway, so the decode can never
    disagree with the cache key the gateway stored.

    Chaos rehearsal: with ``kill_rate`` set, each serve command first
    draws from a ``(kill_seed, "replica-kill", replica_id, spawn)`` stream
    and may ``os._exit`` — the hard mid-flight death the supervised pool
    absorbs.  Like every supervised member it starts trace-quiet; the
    gateway emits the cluster spans.
    """
    chaos = Chaos(spec.kill_rate, spec.kill_seed, "replica-kill",
                  replica_id, spawn, KILL_EXIT_CODE)
    registry = ModelRegistry()
    for version, source in spec.sources.items():
        registry.register(version, source)
    registry.activate(spec.active_version)
    service = RecommendationService(
        registry, spec.serving, service_id=f"replica{replica_id}"
    )
    while True:
        commands = [cmd_queue.get()]
        while not cmd_queue.empty():
            commands.append(cmd_queue.get())
        tickets = []
        for command in commands:
            if command is None:
                return
            kind = command[0]
            if kind == "serve":
                chaos.strike()
                _, rid, insight, k, version, deadline_s = command
                try:
                    try:
                        ticket = service.submit(
                            insight, k=k, deadline_s=deadline_s,
                            model_version=version,
                        )
                    except QueueFullError:
                        service.flush()     # drain, then re-admit
                        ticket = service.submit(
                            insight, k=k, deadline_s=deadline_s,
                            model_version=version,
                        )
                except BaseException as err:  # noqa: BLE001 - shipped back
                    result_conn.send(("error", rid, RemoteError(err)))
                    continue
                tickets.append((rid, ticket))
            elif kind == "register":
                try:
                    service.register_model(command[1], command[2])
                except BaseException:  # noqa: BLE001 - respawn re-register
                    pass
            elif kind == "swap":
                try:
                    service.hot_swap(command[1])
                except BaseException as err:  # noqa: BLE001 - shipped back
                    result_conn.send(("error", -1, RemoteError(err)))
        if tickets:
            service.flush()
            for rid, ticket in tickets:
                if ticket.status is RequestStatus.EXPIRED:
                    result_conn.send(("expired", rid))
                else:
                    result_conn.send(
                        ("ok", rid, ticket._result, ticket.cache_hit)
                    )


class _ProcessReplica:
    """Routing slot of one replica process: its pool member, load and
    in-flight requests."""

    backend = "process"

    def __init__(self, member: Member) -> None:
        self.member = member
        self.id = member.id
        self.spawn = member.spawn
        self.load = 0
        self.inflight: Dict[int, _ClusterRequest] = {}
        self.dead = False

    @property
    def alive(self) -> bool:
        return not self.dead and self.member.alive

    def send(self, command: tuple) -> None:
        self.member.send(command)


class _InlineReplica:
    """An in-gateway replica: same command surface, no IPC.

    Used for deterministic tests, single-process deployments, and as the
    degrade target when the process pool loses its restart budget.  The
    serve path is identical (a private :class:`RecommendationService`,
    version-pinned decode); results are delivered synchronously through
    the same event handler the process backend uses.
    """

    backend = "inline"

    spawn = 0

    def __init__(self, cluster: "ServingCluster", replica_id: int) -> None:
        self.id = replica_id
        self.load = 0
        self.inflight: Dict[int, _ClusterRequest] = {}
        self.dead = False
        self._cluster = cluster
        spec = cluster._spec()
        registry = ModelRegistry()
        for version, source in spec.sources.items():
            registry.register(version, source)
        registry.activate(spec.active_version)
        self.service = RecommendationService(registry, spec.serving)

    @property
    def alive(self) -> bool:
        return not self.dead

    def send(self, command: tuple) -> None:
        kind = command[0]
        if kind == "serve":
            _, rid, insight, k, version, deadline_s = command
            try:
                ticket = self.service.submit(
                    insight, k=k, deadline_s=deadline_s,
                    model_version=version,
                )
                self.service.flush()
            except BaseException as err:  # noqa: BLE001 - same surface
                self._cluster._handle_event(
                    ("msg", self.id, self.spawn,
                     ("error", rid, RemoteError(err)))
                )
                return
            if ticket.status is RequestStatus.EXPIRED:
                item = ("expired", rid)
            else:
                item = ("ok", rid, ticket._result, ticket.cache_hit)
            self._cluster._handle_event(("msg", self.id, self.spawn, item))
        elif kind == "register":
            try:
                self.service.register_model(command[1], command[2])
            except BaseException:  # noqa: BLE001 - duplicate re-register
                pass
        elif kind == "swap":
            self.service.hot_swap(command[1])


class ServingCluster:
    """Async frontend gateway over a pool of recommendation replicas."""

    def __init__(
        self,
        model: Union[InsightAlign, ModelRegistry],
        config: ClusterConfig = ClusterConfig(),
        serving: ServingConfig = ServingConfig(),
        clock=time.monotonic,
    ) -> None:
        self.config = config
        self.clock = clock
        if isinstance(model, ModelRegistry):
            self.registry = model
        else:
            self.registry = ModelRegistry()
            self.registry.register(INITIAL_VERSION, model)
            self.registry.activate(INITIAL_VERSION)
        self._active_version = self.registry.active_version
        # Replicas must be able to hold every admitted request, whatever
        # the routing policy concentrates on one of them.
        self.serving = replace(
            serving,
            max_queue_depth=max(serving.max_queue_depth,
                                config.shed_watermark),
        )
        self.l2 = ResultCache(
            capacity=config.l2_capacity,
            insight_decimals=serving.insight_decimals,
        )
        self.router = router_for(config.routing, config.replicas)
        self.admission = AdmissionController(config.shed_watermark)
        self._events: Deque[tuple] = deque()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight: Dict[int, _ClusterRequest] = {}
        self._next_rid = 0
        self._outstanding = 0
        self._redispatched = 0
        self._completed = 0
        self._l1_hits = 0
        # Per-cluster accounting for stats(): the serving_cluster_*
        # metric families are process-global (shared by every cluster in
        # the process), so the point-in-time snapshot keeps its own.
        self._routed_counts: Dict[str, int] = {}
        self._canary_requests = 0
        self._shadow_mirrors = 0
        self._shadow_mismatches = 0
        self._shadow_tasks: set = set()
        self.degraded = False
        self._closed = False
        self._fallback: Optional[_InlineReplica] = None
        self._init_metrics()
        self._pool: Optional[SupervisedPool] = None
        self._replicas: List[object]
        if config.backend == "process":
            # Respawns take the dead replica's id: routing slots and the
            # chaos streams are keyed by it.
            self._pool = SupervisedPool(
                _replica_main,
                lambda: (self._spec(),),
                size=config.replicas,
                max_respawns=config.max_replica_restarts,
                gauge="serving_replicas_live",
                gauge_help="live serving replicas",
                reuse_ids=True,
                on_spawn=self._start_reader,
            )
            self._replicas = [
                _ProcessReplica(member) for member in self._pool.members
            ]
        else:
            self._replicas = [
                _InlineReplica(self, replica_id)
                for replica_id in range(config.replicas)
            ]
            self._m_live.set(len(self._replicas))

    # -- construction helpers ------------------------------------------
    def _spec(self) -> _ReplicaSpec:
        return _ReplicaSpec(
            sources=self.registry.sources(),
            active_version=self._active_version,
            serving=self.serving,
            kill_rate=self.config.kill_rate,
            kill_seed=self.config.kill_seed,
        )

    def _init_metrics(self) -> None:
        reg = get_registry()
        self._m_routed = reg.counter(
            "serving_cluster_requests_total",
            "requests routed to a replica",
        )
        self._m_shed = reg.counter(
            "serving_cluster_shed_total",
            "arrivals rejected by admission control",
        )
        self._m_l2_hits = reg.counter(
            "serving_cluster_l2_hits_total", "shared L2 cache hits"
        )
        self._m_l2_misses = reg.counter(
            "serving_cluster_l2_misses_total", "shared L2 cache misses"
        )
        self._m_restarts = reg.counter(
            "serving_cluster_replica_restarts_total",
            "replica processes respawned after death",
        )
        self._m_redispatched = reg.counter(
            "serving_cluster_redispatched_total",
            "in-flight requests re-routed off a dead replica",
        )
        self._m_canary = reg.counter(
            "serving_cluster_canary_requests_total",
            "requests served by the canary version",
        )
        self._m_shadow = reg.counter(
            "serving_cluster_shadow_mirrors_total",
            "requests mirrored to the shadow version",
        )
        self._m_shadow_mismatch = reg.counter(
            "serving_cluster_shadow_mismatch_total",
            "shadow responses disagreeing with the active version",
        )
        self._m_degraded = reg.counter(
            "serving_cluster_degraded_total",
            "clusters that degraded to in-gateway serving",
        )
        self._m_outstanding = reg.gauge(
            "serving_cluster_outstanding",
            "accepted-but-unfinished cluster requests",
        )
        self._m_live = reg.gauge(
            "serving_replicas_live", "live serving replicas"
        )

    # -- event plumbing ------------------------------------------------
    def _start_reader(self, member: Member) -> None:
        threading.Thread(
            target=self._drain, args=(member,), daemon=True,
            name=f"replica-r{member.id}s{member.spawn}-reader",
        ).start()

    def _drain(self, member: Member) -> None:
        """Reader thread: pipe -> gateway event queue, EOF -> death."""
        while True:
            try:
                item = member.results.recv()
            except (EOFError, OSError):
                self._post(("dead", member.id, member.spawn))
                return
            self._post(("msg", member.id, member.spawn, item))

    def _post(self, event: tuple) -> None:
        """Thread-safe: enqueue an event and wake the loop if running."""
        self._events.append(event)
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._pump)
            except RuntimeError:
                pass            # loop gone; events drain at next entry

    def _pump(self) -> None:
        while True:
            try:
                event = self._events.popleft()
            except IndexError:
                return
            self._handle_event(event)

    def _handle_event(self, event: tuple) -> None:
        kind = event[0]
        if kind == "msg":
            _, replica_id, spawn, item = event
            self._on_message(replica_id, spawn, item)
        elif kind == "dead":
            _, replica_id, spawn = event
            self._on_death(replica_id, spawn)

    def _on_message(self, replica_id: int, spawn: int, item: tuple) -> None:
        handle = (
            self._fallback if replica_id < 0
            else self._replicas[replica_id]
        )
        what, rid = item[0], item[1]
        request = self._inflight.pop(rid, None)
        if handle.spawn == spawn:
            if handle.inflight.pop(rid, None) is not None:
                handle.load -= 1
        if request is None:
            return                  # duplicate answer after a re-dispatch
        if what == "ok":
            _, _, result, l1_hit = item
            if l1_hit:
                self._l1_hits += 1
                request._l1_hit = True
            self.l2.put(request.key, result)
            self._completed += 1
            if not request.future.done():
                request.future.set_result(result)
        elif what == "expired":
            if not request.future.done():
                request.future.set_exception(DeadlineExceededError(
                    f"request {rid} expired before the replica served it"
                ))
        elif what == "error":
            if not request.future.done():
                request.future.set_exception(item[2].error)
        self._m_outstanding.set(len(self._inflight))

    def _on_death(self, replica_id: int, spawn: int) -> None:
        handle = self._replicas[replica_id]
        if handle.spawn != spawn or self._closed:
            return                  # stale event for an already-replaced one
        handle.dead = True
        lost = list(handle.inflight.values())
        handle.inflight.clear()
        handle.load = 0
        death = self._pool.retire(handle.member)
        if death.replacement is not None:
            self._m_restarts.inc()
            self._replicas[replica_id] = _ProcessReplica(death.replacement)
        elif not self.degraded:
            self.degraded = True
            self._m_degraded.inc()
        tracer = get_tracer()
        with tracer.span(
            "serve.replica_restart", replica=replica_id,
            lost=len(lost), degraded=self.degraded,
        ):
            for request in lost:
                if request.rid in self._inflight:
                    self._redispatched += 1
                    self._m_redispatched.inc()
                    self._dispatch(request)

    # -- admission + routing -------------------------------------------
    def _ensure_loop(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._pump()

    def _assignment(self, route_key: bytes) -> tuple:
        """(pinned version, mirror?) for one arrival — deterministic."""
        cfg = self.config
        if cfg.canary_version is None or cfg.canary_fraction <= 0.0:
            return None, False
        draw = _hash64(
            route_key + b"|canary|" + str(cfg.kill_seed).encode()
        ) % 10_000
        if draw >= round(cfg.canary_fraction * 10_000):
            return None, False
        if cfg.shadow:
            return None, True
        return cfg.canary_version, False

    async def submit(
        self,
        insight: np.ndarray,
        k: int = 5,
        deadline_s: Optional[float] = None,
    ):
        """Serve one request; returns the recommendation list.

        Raises what :meth:`RecommendationService.submit` raises for a
        malformed ``k`` or insight (before any lookup or admission),
        :class:`OverloadedError` when admission sheds the arrival,
        :class:`DeadlineExceededError` when the deadline passed before a
        replica could decode it.
        """
        self._ensure_loop()
        if self._closed:
            raise ServingError("cluster is closed")
        insight = np.asarray(insight, dtype=np.float64).copy()
        route_key = quantize_insight(insight, self.serving.insight_decimals)
        pinned, mirror = self._assignment(route_key)
        version = pinned or self._active_version
        insight, k = check_request(self.registry, version, insight, k)
        key = self.l2.key(version, insight, k)
        cached = self.l2.get(key)
        if cached is not None:
            self._m_l2_hits.inc()
            return cached
        self._m_l2_misses.inc()
        tracer = get_tracer()
        try:
            self.admission.admit(self._outstanding)
        except OverloadedError:
            self._m_shed.inc()
            with tracer.span(
                "serve.shed", outstanding=self._outstanding,
                watermark=self.config.shed_watermark,
            ):
                pass
            raise
        if pinned is not None:
            self._m_canary.inc()
            self._canary_requests += 1
        request = self._make_request(
            insight, k, version, key, route_key, deadline_s
        )
        self._outstanding += 1
        self._dispatch(request)
        if mirror:
            self._mirror(request)
        try:
            return await request.future
        finally:
            self._outstanding -= 1

    def _make_request(self, insight, k, version, key, route_key,
                      deadline_s, shadow: bool = False) -> _ClusterRequest:
        rid = self._next_rid
        self._next_rid += 1
        request = _ClusterRequest(
            rid=rid, insight=insight, k=k, version=version, key=key,
            route_key=route_key, deadline_s=deadline_s,
            future=self._loop.create_future(), shadow=shadow,
        )
        self._inflight[rid] = request
        self._m_outstanding.set(len(self._inflight))
        return request

    def _dispatch(self, request: _ClusterRequest) -> None:
        alive = [h.alive for h in self._replicas]
        if not any(alive):
            self._serve_fallback(request)
            return
        loads = [h.load for h in self._replicas]
        tracer = get_tracer()
        with tracer.span(
            "serve.route", policy=self.router.name,
            dispatch=request.dispatch, shadow=request.shadow,
        ) as span:
            index = self.router.route(request.route_key, loads, alive)
            span.set_attribute("replica", index)
        handle = self._replicas[index]
        handle.load += 1
        handle.inflight[request.rid] = request
        request.dispatch += 1
        self._m_routed.inc(replica=f"r{index}")
        name = f"r{index}"
        self._routed_counts[name] = self._routed_counts.get(name, 0) + 1
        handle.send((
            "serve", request.rid, request.insight, request.k,
            request.version, request.deadline_s,
        ))

    def _serve_fallback(self, request: _ClusterRequest) -> None:
        """Degraded path: no live replica — decode in the gateway."""
        if self._fallback is None:
            self._fallback = _InlineReplica(self, -1)
        fallback = self._fallback
        fallback.inflight[request.rid] = request
        request.dispatch += 1
        fallback.send((
            "serve", request.rid, request.insight, request.k,
            request.version, request.deadline_s,
        ))

    # -- shadow rollout ------------------------------------------------
    def _mirror(self, primary: _ClusterRequest) -> None:
        """Fire the shadow copy of ``primary`` at the canary version.

        The mirror routes, decodes and fills the L2 under the canary's
        version key (warming it for a future promote), but bypasses
        admission and never touches the primary's response; disagreement
        is only counted.
        """
        canary = self.config.canary_version
        shadow = self._make_request(
            primary.insight, primary.k, canary,
            self.l2.key(canary, primary.insight, primary.k),
            primary.route_key, primary.deadline_s, shadow=True,
        )
        self._shadow_mirrors += 1
        self._m_shadow.inc()
        self._dispatch(shadow)
        task = self._loop.create_task(self._compare(primary, shadow))
        self._shadow_tasks.add(task)
        task.add_done_callback(self._shadow_tasks.discard)

    async def _compare(self, primary: _ClusterRequest,
                       shadow: _ClusterRequest) -> None:
        stable, candidate = await asyncio.gather(
            asyncio.shield(primary.future), shadow.future,
            return_exceptions=True,
        )
        if isinstance(stable, BaseException) or \
                isinstance(candidate, BaseException):
            return              # comparison is best-effort
        if [r.recipe_set for r in stable] != \
                [r.recipe_set for r in candidate]:
            self._shadow_mismatches += 1
            self._m_shadow_mismatch.inc()

    async def drain_shadows(self) -> None:
        """Wait out any in-flight shadow comparisons."""
        while self._shadow_tasks:
            await asyncio.gather(*list(self._shadow_tasks),
                                 return_exceptions=True)

    # -- model lifecycle -----------------------------------------------
    def register_model(self, version: str, source: ModelSource) -> None:
        """Register ``version`` on the gateway and broadcast to replicas."""
        self.registry.register(version, source)
        for handle in self._replicas:
            if handle.alive:
                handle.send(("register", version, source))
        if self._fallback is not None:
            self._fallback.send(("register", version, source))

    def hot_swap(self, version: str) -> str:
        """Activate ``version`` cluster-wide.

        The gateway resolves and validates first (a bad archive leaves
        the old version serving), flips the resolved version for every
        subsequent admission, broadcasts the swap, and purges the retired
        version's L2 entries — versioned invalidation, so a live canary's
        warm entries survive.  Requests admitted before the swap carry
        their pinned old version and stay coherent.
        """
        self.registry.activate(version)
        retired = self._active_version
        self._active_version = version
        for handle in self._replicas:
            if handle.alive:
                handle.send(("swap", version))
        if self._fallback is not None:
            self._fallback.send(("swap", version))
        if retired != version:
            self.l2.purge_version(retired)
        return version

    def set_canary(self, version: Optional[str], fraction: float = 0.1,
                   shadow: bool = False) -> None:
        """Start (or stop, with ``None``) a canary/shadow rollout."""
        if version is not None and version not in self.registry.versions():
            raise ServingError(
                f"canary version {version!r} is not registered; "
                "call register_model first"
            )
        self.config = replace(
            self.config,
            canary_version=version,
            canary_fraction=fraction if version is not None else 0.0,
            shadow=shadow,
        )

    # -- sync drivers ----------------------------------------------------
    def serve_all(
        self,
        insights: Sequence[np.ndarray],
        k: int = 5,
        concurrency: int = 32,
        deadline_s: Optional[float] = None,
    ) -> List:
        """Drive a whole workload from synchronous code.

        Submits every insight with at most ``concurrency`` requests in
        flight (keep it at or below the shed watermark for a shed-free
        run) and returns results in submission order.
        """
        async def driver():
            results: List = [None] * len(insights)
            gate = asyncio.Semaphore(concurrency)

            async def one(index: int, vector) -> None:
                async with gate:
                    results[index] = await self.submit(
                        vector, k=k, deadline_s=deadline_s
                    )

            await asyncio.gather(
                *(one(i, v) for i, v in enumerate(insights))
            )
            await self.drain_shadows()
            return results

        return asyncio.run(driver())

    # -- lifecycle / stats ---------------------------------------------
    def close(self) -> None:
        """Shut every replica down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pump()
        if self._pool is not None:
            self._pool.shutdown()
        else:
            self._m_live.set(0)
        for handle in self._replicas + [self._fallback]:
            if handle is not None:
                handle.dead = True
        self._loop = None

    def __enter__(self) -> "ServingCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """A point-in-time snapshot of the cluster's own accounting."""
        per_replica = {
            f"r{h.id}": self._routed_counts.get(f"r{h.id}", 0)
            for h in self._replicas
        }
        return {
            "replicas": self.config.replicas,
            "backend": self.config.backend,
            "routing": self.router.name,
            "model_version": self._active_version,
            "live": sum(1 for h in self._replicas if h.alive),
            "restarts": self._pool.respawns if self._pool else 0,
            "redispatched": self._redispatched,
            "degraded": self.degraded,
            "completed": self._completed,
            "outstanding": self._outstanding,
            "routed": per_replica,
            "l1_hits": self._l1_hits,
            "admission": self.admission.stats(),
            "l2": self.l2.stats(),
            "canary": {
                "version": self.config.canary_version,
                "fraction": self.config.canary_fraction,
                "shadow": self.config.shadow,
                "requests": self._canary_requests,
                "mirrors": self._shadow_mirrors,
                "mismatches": self._shadow_mismatches,
            },
        }
