"""The multi-replica serving cluster: routing, shedding, caching, rollout.

Covers the ISSUE 9 acceptance criteria:

- cluster responses bit-identical to single-replica serving at replica
  counts 1/2/4 for every routing policy, on both backends;
- typed ``OverloadedError`` shedding at the watermark, *before* deadlines
  burn, and a shed rate of exactly zero below it;
- the tiered cache (per-replica L1 + cluster-shared L2) and versioned L2
  invalidation on hot-swap;
- canary/shadow rollout through the registry's version-pinning hook;
- seeded replica-kill chaos completing with no lost accepted requests,
  and degrade-to-gateway once the restart budget is spent;
- ``serve.route`` / ``serve.shed`` spans and the ``serving_cluster_*`` /
  ``serving_replicas_live`` metric families.
"""

import asyncio
import time

import numpy as np
import pytest

from repro.core.model import InsightAlignModel
from repro.core.recommender import InsightAlign
from repro.errors import OverloadedError, ServingError
from repro.insights.schema import INSIGHT_DIMS
from repro.observability import (
    InMemoryExporter,
    MetricsRegistry,
    Tracer,
    get_registry,
    set_registry,
    set_tracer,
)
from repro.serving import (
    AdmissionController,
    ClusterConfig,
    ConsistentHashRouter,
    LeastLoadedRouter,
    RecommendationService,
    RoundRobinRouter,
    ServingCluster,
    ServingConfig,
    router_for,
)

ROUTINGS = ("least-loaded", "consistent-hash", "round-robin")


def make_model(seed=33):
    return InsightAlign(InsightAlignModel(n_recipes=8, dim=16, seed=seed))


def insight_vectors(count, seed=0):
    return np.random.default_rng(seed).normal(size=(count, INSIGHT_DIMS))


def recipe_sets(results):
    """The bit-level payload of a per-request result list-of-lists."""
    return [[r.recipe_set for r in request] for request in results]


def single_replica_reference(model, insights, k=3):
    service = RecommendationService(
        model, ServingConfig(max_batch_size=8, max_wait_s=0.0,
                             cache_capacity=0)
    )
    out = []
    for vector in insights:
        ticket = service.submit(vector, k=k)
        service.flush()
        out.append(ticket.result())
    return out


@pytest.fixture()
def fresh_observability():
    """Isolated metrics registry + capturing tracer for one test."""
    exporter = InMemoryExporter()
    previous_tracer = set_tracer(Tracer(exporter=exporter))
    previous_registry = set_registry(MetricsRegistry())
    try:
        yield exporter
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)


class TestClusterConfig:
    def test_defaults_valid(self):
        config = ClusterConfig()
        assert config.replicas == 2
        assert config.routing == "least-loaded"

    @pytest.mark.parametrize("kwargs", [
        dict(replicas=0),
        dict(routing="random"),
        dict(backend="thread"),
        dict(shed_watermark=0),
        dict(l2_capacity=-1),
        dict(canary_fraction=1.5, canary_version="v2"),
        dict(canary_fraction=0.5),            # fraction without a version
        dict(shadow=True),                    # shadow without a version
        dict(kill_rate=1.0),
        dict(kill_rate=0.1, backend="inline"),  # chaos needs processes
        dict(max_replica_restarts=-1),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ServingError):
            ClusterConfig(**kwargs)


class TestRouters:
    def test_factory_builds_each_policy(self):
        assert isinstance(router_for("least-loaded", 2), LeastLoadedRouter)
        assert isinstance(
            router_for("consistent-hash", 2), ConsistentHashRouter
        )
        assert isinstance(router_for("round-robin", 2), RoundRobinRouter)
        with pytest.raises(ServingError):
            router_for("nope", 2)

    def test_least_loaded_picks_min_with_low_index_ties(self):
        router = LeastLoadedRouter(4)
        assert router.route(b"x", [3, 1, 1, 2]) == 1
        assert router.route(b"x", [0, 0, 0, 0]) == 0
        assert router.route(b"x", [5, 4, 3, 2], alive=[True] * 4) == 3

    def test_least_loaded_skips_dead(self):
        router = LeastLoadedRouter(3)
        assert router.route(b"x", [9, 0, 1],
                            alive=[True, False, True]) == 2

    def test_round_robin_rotates_over_live(self):
        router = RoundRobinRouter(3)
        picks = [router.route(b"x", [0, 0, 0]) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
        router = RoundRobinRouter(3)
        alive = [True, False, True]
        picks = [router.route(b"x", [0, 0, 0], alive) for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_consistent_hash_is_sticky(self):
        router = ConsistentHashRouter(4)
        keys = [f"insight-{i}".encode() for i in range(64)]
        owners = [router.route(key, [0] * 4) for key in keys]
        # Stable across repeated calls and load changes.
        assert owners == [router.route(key, [9, 1, 4, 0]) for key in keys]
        # All replicas own some share of the key space.
        assert set(owners) == {0, 1, 2, 3}

    def test_consistent_hash_death_moves_only_owned_keys(self):
        router = ConsistentHashRouter(4)
        keys = [f"insight-{i}".encode() for i in range(64)]
        before = {key: router.route(key, [0] * 4) for key in keys}
        dead = 2
        alive = [replica != dead for replica in range(4)]
        for key in keys:
            after = router.route(key, [0] * 4, alive)
            if before[key] != dead:
                assert after == before[key]       # unaffected arc stays
            else:
                assert after != dead

    def test_no_live_replica_raises(self):
        for router in (LeastLoadedRouter(2), ConsistentHashRouter(2),
                       RoundRobinRouter(2)):
            with pytest.raises(ServingError):
                router.route(b"x", [0, 0], alive=[False, False])


class TestAdmission:
    def test_admits_below_watermark_and_sheds_at_it(self):
        controller = AdmissionController(shed_watermark=3)
        for outstanding in (0, 1, 2):
            controller.admit(outstanding)
        with pytest.raises(OverloadedError):
            controller.admit(3)
        with pytest.raises(OverloadedError):
            controller.admit(7)
        stats = controller.stats()
        assert stats["admitted"] == 3
        assert stats["shed"] == 2
        assert stats["shed_rate"] == pytest.approx(0.4)

    def test_watermark_validated(self):
        with pytest.raises(ServingError):
            AdmissionController(0)


class TestClusterEquivalence:
    """Cluster == single replica, bit for bit, whatever the topology."""

    @pytest.mark.parametrize("routing", ROUTINGS)
    @pytest.mark.parametrize("replicas", [1, 2, 4])
    def test_inline_backend_matches_reference(self, routing, replicas):
        insights = insight_vectors(12, seed=3)
        reference = single_replica_reference(make_model(), insights)
        cluster = ServingCluster(
            make_model(),
            ClusterConfig(replicas=replicas, routing=routing,
                          backend="inline", shed_watermark=64,
                          l2_capacity=0),
            ServingConfig(max_batch_size=8, max_wait_s=0.0,
                          cache_capacity=0),
        )
        try:
            results = cluster.serve_all(insights, k=3, concurrency=8)
        finally:
            cluster.close()
        assert recipe_sets(results) == recipe_sets(reference)

    @pytest.mark.parametrize("routing", ("least-loaded", "consistent-hash"))
    def test_process_backend_matches_reference(self, routing):
        insights = insight_vectors(12, seed=3)
        reference = single_replica_reference(make_model(), insights)
        with ServingCluster(
            make_model(),
            ClusterConfig(replicas=2, routing=routing, backend="process",
                          shed_watermark=64, l2_capacity=0),
            ServingConfig(max_batch_size=8, max_wait_s=0.0,
                          cache_capacity=0),
        ) as cluster:
            results = cluster.serve_all(insights, k=3, concurrency=8)
        assert recipe_sets(results) == recipe_sets(reference)


class TestMalformedRequests:
    """The gateway refuses a malformed request before its L2 lookup and
    admission, with the error a single service raises."""

    @pytest.mark.parametrize(
        "k,insight,error",
        [(0, None, ValueError), (-3, None, ValueError),
         (2.5, None, ValueError),
         (3, np.zeros(INSIGHT_DIMS - 1), ServingError),
         (3, np.full(INSIGHT_DIMS, np.nan), ServingError)],
        ids=["k=0", "k=-3", "k=2.5", "short-insight", "nan-insight"],
    )
    def test_refused_before_admission(self, k, insight, error):
        if insight is None:
            insight = insight_vectors(1)[0]
        cluster = ServingCluster(
            make_model(),
            ClusterConfig(replicas=1, backend="inline", shed_watermark=8),
            ServingConfig(max_batch_size=4, max_wait_s=0.0),
        )
        try:
            with pytest.raises(error):
                cluster.serve_all([insight], k=k)
            stats = cluster.stats()
        finally:
            cluster.close()
        assert stats["admission"]["admitted"] == 0


class TestLoadShedding:
    def test_zero_sheds_below_watermark(self):
        cluster = ServingCluster(
            make_model(),
            ClusterConfig(replicas=2, backend="inline", shed_watermark=16),
        )
        try:
            cluster.serve_all(insight_vectors(20), k=2, concurrency=8)
            stats = cluster.stats()
        finally:
            cluster.close()
        assert stats["admission"]["shed"] == 0
        assert stats["admission"]["shed_rate"] == 0.0

    def test_overload_sheds_typed_error_before_deadline(self):
        """Past the watermark the caller gets OverloadedError in
        microseconds — not a DeadlineExceededError after the deadline has
        silently burned in a queue."""
        deadline_s = 30.0
        cluster = ServingCluster(
            make_model(),
            ClusterConfig(replicas=1, backend="process", shed_watermark=4,
                          l2_capacity=0),
            # A slow modeled accelerator keeps accepted requests in
            # flight long enough for later arrivals to find the cluster
            # at the watermark.
            ServingConfig(max_batch_size=4, max_wait_s=0.0,
                          cache_capacity=0, decode_latency_s=0.2),
        )
        outcomes = {"served": 0, "shed": 0}
        shed_seconds = []

        async def driver():
            async def one(vector):
                started = time.perf_counter()
                try:
                    await cluster.submit(vector, k=2,
                                         deadline_s=deadline_s)
                    outcomes["served"] += 1
                except OverloadedError:
                    shed_seconds.append(time.perf_counter() - started)
                    outcomes["shed"] += 1
            await asyncio.gather(
                *(one(v) for v in insight_vectors(16, seed=5))
            )

        try:
            asyncio.run(driver())
            stats = cluster.stats()
        finally:
            cluster.close()
        assert outcomes["shed"] > 0, "overload never shed"
        assert outcomes["served"] + outcomes["shed"] == 16
        # Typed rejection is immediate: far below the deadline.
        assert max(shed_seconds) < deadline_s / 10
        assert stats["admission"]["shed"] == outcomes["shed"]


class TestTieredCache:
    def test_l2_serves_repeats_whatever_the_routing(self):
        insights = insight_vectors(10, seed=7)
        cluster = ServingCluster(
            make_model(),
            ClusterConfig(replicas=2, backend="inline",
                          routing="round-robin", shed_watermark=64,
                          l2_capacity=128),
        )
        try:
            first = cluster.serve_all(insights, k=3)
            second = cluster.serve_all(insights, k=3)
            stats = cluster.stats()
        finally:
            cluster.close()
        assert recipe_sets(first) == recipe_sets(second)
        # Round 2 never reaches a replica: the shared L2 answers.
        assert stats["l2"]["hits"] == len(insights)
        assert sum(stats["routed"].values()) == len(insights)

    def test_consistent_hash_keeps_replica_l1_warm(self):
        # With the shared L2 disabled, repeats only hit a cache if the
        # router sends the same insight back to the same replica's L1.
        insights = insight_vectors(10, seed=7)
        cluster = ServingCluster(
            make_model(),
            ClusterConfig(replicas=2, backend="inline",
                          routing="consistent-hash", shed_watermark=64,
                          l2_capacity=0),
            ServingConfig(max_batch_size=8, max_wait_s=0.0,
                          cache_capacity=128),
        )
        try:
            cluster.serve_all(insights, k=3)
            cluster.serve_all(insights, k=3)
            stats = cluster.stats()
        finally:
            cluster.close()
        assert stats["l1_hits"] == len(insights)


class TestCanaryShadow:
    def test_canary_fraction_pins_to_canary_model(self):
        insights = insight_vectors(16, seed=9)
        canary_model = make_model(seed=77)
        cluster = ServingCluster(
            make_model(seed=33),
            ClusterConfig(replicas=2, backend="inline", shed_watermark=64,
                          l2_capacity=0),
            ServingConfig(max_batch_size=8, max_wait_s=0.0,
                          cache_capacity=0),
        )
        try:
            cluster.register_model("v2", canary_model)
            cluster.set_canary("v2", fraction=0.5)
            results = cluster.serve_all(insights, k=3)
            stats = cluster.stats()
        finally:
            cluster.close()
        canaried = int(stats["canary"]["requests"])
        assert 0 < canaried < len(insights)
        # Every response is either the stable model's or the canary's
        # exact output — and the split matches the counter.
        stable_direct = single_replica_reference(
            make_model(seed=33), insights
        )
        canary_direct = single_replica_reference(
            make_model(seed=77), insights
        )
        from_canary = 0
        for got, stable, canary in zip(
            recipe_sets(results), recipe_sets(stable_direct),
            recipe_sets(canary_direct),
        ):
            assert got in (stable, canary)
            if got == canary and got != stable:
                from_canary += 1
        assert from_canary > 0

    def test_canary_assignment_is_deterministic(self):
        insights = insight_vectors(12, seed=9)

        def run():
            cluster = ServingCluster(
                make_model(33),
                ClusterConfig(replicas=2, backend="inline",
                              shed_watermark=64, l2_capacity=0),
            )
            try:
                cluster.register_model("v2", make_model(77))
                cluster.set_canary("v2", fraction=0.4)
                out = cluster.serve_all(insights, k=3)
                count = cluster.stats()["canary"]["requests"]
            finally:
                cluster.close()
            return recipe_sets(out), count

        first, count_a = run()
        second, count_b = run()
        assert first == second
        assert count_a == count_b

    def test_shadow_mirrors_without_affecting_responses(self):
        insights = insight_vectors(14, seed=11)
        reference = single_replica_reference(make_model(33), insights)
        cluster = ServingCluster(
            make_model(33),
            ClusterConfig(replicas=2, backend="inline", shed_watermark=64,
                          l2_capacity=0),
            ServingConfig(max_batch_size=8, max_wait_s=0.0,
                          cache_capacity=0),
        )
        try:
            cluster.register_model("v2", make_model(77))
            cluster.set_canary("v2", fraction=0.5, shadow=True)
            results = cluster.serve_all(insights, k=3)
            stats = cluster.stats()
        finally:
            cluster.close()
        # Responses are bit-identical to serving without any rollout.
        assert recipe_sets(results) == recipe_sets(reference)
        canary = stats["canary"]
        assert canary["requests"] == 0          # nothing *served* by it
        assert canary["mirrors"] > 0
        # Different seeds disagree, and the comparator noticed.
        assert 0 < canary["mismatches"] <= canary["mirrors"]

    def test_set_canary_requires_registered_version(self):
        cluster = ServingCluster(
            make_model(),
            ClusterConfig(replicas=1, backend="inline", shed_watermark=8),
        )
        try:
            with pytest.raises(ServingError):
                cluster.set_canary("ghost", fraction=0.5)
        finally:
            cluster.close()


class TestHotSwap:
    def test_swap_changes_results_and_purges_l2_by_version(self):
        insights = insight_vectors(6, seed=13)
        cluster = ServingCluster(
            make_model(33),
            ClusterConfig(replicas=2, backend="inline", shed_watermark=64,
                          l2_capacity=128),
        )
        try:
            cluster.register_model("v2", make_model(77))
            before = cluster.serve_all(insights, k=3)
            assert len(cluster.l2) == len(insights)
            cluster.hot_swap("v2")
            # The retired version's entries are gone from the shared L2.
            assert len(cluster.l2) == 0
            after = cluster.serve_all(insights, k=3)
            stats = cluster.stats()
        finally:
            cluster.close()
        assert stats["model_version"] == "v2"
        reference = single_replica_reference(make_model(77), insights)
        assert recipe_sets(after) == recipe_sets(reference)
        assert recipe_sets(after) != recipe_sets(before)

    def test_swap_purge_spares_other_versions_entries(self):
        insights = insight_vectors(5, seed=13)
        cluster = ServingCluster(
            make_model(33),
            ClusterConfig(replicas=1, backend="inline", shed_watermark=64,
                          l2_capacity=128),
        )
        try:
            cluster.register_model("v2", make_model(77))
            cluster.set_canary("v2", fraction=1.0)   # fill L2 under v2
            cluster.serve_all(insights, k=3)
            cluster.set_canary(None)
            cluster.serve_all(insights, k=3)         # fill L2 under v1
            assert len(cluster.l2) == 2 * len(insights)
            cluster.hot_swap("v2")                   # retire v1 entries
            assert len(cluster.l2) == len(insights)  # canary's survive
        finally:
            cluster.close()


class TestChaos:
    def test_seeded_kills_lose_no_accepted_requests(self):
        insights = insight_vectors(40, seed=17)
        reference = single_replica_reference(make_model(), insights, k=2)
        cluster = ServingCluster(
            make_model(),
            ClusterConfig(replicas=3, backend="process", shed_watermark=64,
                          kill_rate=0.08, kill_seed=7,
                          max_replica_restarts=60, l2_capacity=0),
            ServingConfig(max_batch_size=8, max_wait_s=0.0,
                          cache_capacity=0),
        )
        try:
            results = cluster.serve_all(insights, k=2, concurrency=12)
            stats = cluster.stats()
        finally:
            cluster.close()
        assert stats["restarts"] > 0, "chaos never killed a replica"
        assert stats["completed"] == len(insights)
        assert all(request is not None for request in results)
        # Survived *and* stayed bit-identical.
        assert recipe_sets(results) == recipe_sets(reference)

    def test_restart_budget_exhaustion_degrades_to_gateway(self):
        insights = insight_vectors(12, seed=19)
        cluster = ServingCluster(
            make_model(),
            ClusterConfig(replicas=1, backend="process", shed_watermark=64,
                          kill_rate=0.9, kill_seed=3,
                          max_replica_restarts=1, l2_capacity=0),
            ServingConfig(max_batch_size=4, max_wait_s=0.0,
                          cache_capacity=0),
        )
        try:
            results = cluster.serve_all(insights, k=2, concurrency=4)
            stats = cluster.stats()
        finally:
            cluster.close()
        assert stats["degraded"] is True
        assert stats["restarts"] == 1            # the whole budget
        assert stats["completed"] == len(insights)
        reference = single_replica_reference(make_model(), insights, k=2)
        assert recipe_sets(results) == recipe_sets(reference)


class TestClusterObservability:
    def test_route_spans_and_metric_families(self, fresh_observability):
        exporter = fresh_observability
        insights = insight_vectors(8, seed=21)
        cluster = ServingCluster(
            make_model(),
            ClusterConfig(replicas=2, backend="inline", shed_watermark=64),
        )
        try:
            cluster.serve_all(insights, k=2)
            registry = get_registry()
            routed = registry.get("serving_cluster_requests_total")
            live = registry.get("serving_replicas_live")
            assert routed is not None
            assert routed.aggregate() == len(insights)
            # Per-replica label children, not one anonymous blob.
            labelled = {
                dict(key).get("replica") for key in routed.values()
            }
            assert labelled <= {"r0", "r1"}
            assert live.value == 2
        finally:
            cluster.close()
        assert get_registry().get("serving_replicas_live").value == 0
        names = [span.name for span in exporter.records()]
        assert names.count("serve.route") == len(insights)

    def test_shed_span_emitted(self, fresh_observability):
        exporter = fresh_observability
        cluster = ServingCluster(
            make_model(),
            ClusterConfig(replicas=1, backend="inline", shed_watermark=1),
        )

        async def driver():
            cluster._ensure_loop()
            cluster._outstanding = 1     # hold the cluster at watermark
            with pytest.raises(OverloadedError):
                await cluster.submit(insight_vectors(1)[0], k=2)

        try:
            asyncio.run(driver())
        finally:
            cluster.close()
        shed_spans = [s for s in exporter.records()
                      if s.name == "serve.shed"]
        assert len(shed_spans) == 1
        registry = get_registry()
        assert registry.get("serving_cluster_shed_total").value == 1
