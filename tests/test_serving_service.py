"""Serving edge cases, driven deterministically via VirtualClock.

Covers the ISSUE checklist: deadline-expired requests are rejected not
served, queue-full backpressure, cache invalidation on hot-swap, and the
single-request batch path matching direct recommendation exactly.
"""

import numpy as np
import pytest

from repro.core.model import InsightAlignModel
from repro.core.recommender import InsightAlign
from repro.errors import DeadlineExceededError, QueueFullError, ServingError
from repro.insights.schema import INSIGHT_DIMS
from repro.runtime.clock import VirtualClock
from repro.serving import (
    RecommendationService,
    RequestStatus,
    ServingConfig,
)


@pytest.fixture()
def recommender():
    return InsightAlign(InsightAlignModel(n_recipes=8, dim=16, seed=33))


@pytest.fixture()
def clock():
    return VirtualClock()


def make_service(recommender, clock, **knobs):
    defaults = dict(max_batch_size=4, max_wait_s=0.010, max_queue_depth=8)
    defaults.update(knobs)
    return RecommendationService(
        recommender, ServingConfig(**defaults), clock=clock, sleep=clock.sleep
    )


def insight_vectors(count, seed=0):
    return np.random.default_rng(seed).normal(size=(count, INSIGHT_DIMS))


class TestBatchFormation:
    def test_full_batch_dispatches_immediately(self, recommender, clock):
        service = make_service(recommender, clock)
        tickets = [service.submit(v, k=2) for v in insight_vectors(4)]
        # No virtual time has passed, but the batch is full.
        assert service.poll() == 4
        assert all(t.status is RequestStatus.COMPLETED for t in tickets)

    def test_partial_batch_waits_for_max_wait(self, recommender, clock):
        service = make_service(recommender, clock)
        ticket = service.submit(insight_vectors(1)[0], k=2)
        assert service.poll() == 0          # not due yet
        assert not ticket.done
        clock.advance(0.010)
        assert service.poll() == 1          # oldest waited max_wait_s
        assert ticket.done

    def test_run_until_idle_sleeps_to_dispatch(self, recommender, clock):
        service = make_service(recommender, clock)
        tickets = [service.submit(v) for v in insight_vectors(6)]
        settled = service.run_until_idle()
        assert settled == 6
        assert all(t.status is RequestStatus.COMPLETED for t in tickets)
        # One full batch of 4 plus a partial of 2 after the virtual wait.
        stats = service.stats()
        assert stats["batches"] == 2
        assert clock.now() >= 0.010

    def test_oversized_submission_splits_batches(self, recommender, clock):
        service = make_service(recommender, clock, max_queue_depth=16)
        for v in insight_vectors(10):
            service.submit(v, k=2)
        service.flush()
        occupancy = service.stats()["batch_occupancy"]
        assert occupancy["count"] == 3      # 4 + 4 + 2
        assert occupancy["max"] == 1.0

    def test_pending_result_raises(self, recommender, clock):
        service = make_service(recommender, clock)
        ticket = service.submit(insight_vectors(1)[0])
        with pytest.raises(ServingError):
            ticket.result()


class TestDeadlines:
    def test_expired_request_rejected_not_served(self, recommender, clock):
        service = make_service(recommender, clock)
        ticket = service.submit(insight_vectors(1)[0], k=2, deadline_s=0.002)
        clock.advance(0.005)                # past deadline, past nothing else
        settled = service.run_until_idle()
        assert settled == 1
        assert ticket.status is RequestStatus.EXPIRED
        with pytest.raises(DeadlineExceededError):
            ticket.result()
        stats = service.stats()
        assert stats["requests"]["expired"] == 1
        assert stats["requests"]["completed"] == 0
        assert stats["batches"] == 0        # nothing was decoded for it

    def test_live_requests_survive_expired_peers(self, recommender, clock):
        service = make_service(recommender, clock)
        vectors = insight_vectors(3)
        doomed = service.submit(vectors[0], k=2, deadline_s=0.001)
        alive = [service.submit(v, k=2) for v in vectors[1:]]
        clock.advance(0.010)
        service.run_until_idle()
        assert doomed.status is RequestStatus.EXPIRED
        assert all(t.status is RequestStatus.COMPLETED for t in alive)

    def test_default_deadline_applies(self, recommender, clock):
        service = make_service(recommender, clock, default_deadline_s=0.003,
                               max_wait_s=0.02)
        ticket = service.submit(insight_vectors(1)[0])
        assert ticket.deadline_at == pytest.approx(0.003)
        clock.advance(0.004)
        service.poll()
        assert ticket.status is RequestStatus.EXPIRED


class TestBackpressure:
    def test_queue_full_rejects(self, recommender, clock):
        service = make_service(recommender, clock, max_queue_depth=3,
                               max_batch_size=8)
        vectors = insight_vectors(4)
        for v in vectors[:3]:
            service.submit(v)
        with pytest.raises(QueueFullError):
            service.submit(vectors[3])
        stats = service.stats()
        assert stats["requests"]["rejected"] == 1
        assert stats["requests"]["submitted"] == 3

    def test_draining_reopens_admission(self, recommender, clock):
        service = make_service(recommender, clock, max_queue_depth=3,
                               max_batch_size=8)
        vectors = insight_vectors(4)
        for v in vectors[:3]:
            service.submit(v)
        with pytest.raises(QueueFullError):
            service.submit(vectors[3])
        service.flush()
        ticket = service.submit(vectors[3])  # now admitted
        service.flush()
        assert ticket.status is RequestStatus.COMPLETED


class TestMalformedRequests:
    """A malformed insight is refused at submit, before queueing, so it can
    never strand the well-formed requests of its micro-batch."""

    def test_wrong_length_insight_refused_before_queueing(
        self, recommender, clock
    ):
        service = make_service(recommender, clock)
        good = [service.submit(v, k=2) for v in insight_vectors(2)]
        with pytest.raises(ServingError):
            service.submit(np.zeros(INSIGHT_DIMS - 1), k=2)
        assert service.queue_depth == 2
        assert service.flush() == 2
        assert all(t.status is RequestStatus.COMPLETED for t in good)

    @pytest.mark.parametrize(
        "insight",
        [np.zeros((1, INSIGHT_DIMS)), np.full(INSIGHT_DIMS, np.nan),
         np.full(INSIGHT_DIMS, -np.inf)],
        ids=["2-d", "nan", "inf"],
    )
    def test_malformed_insight_refused(self, recommender, clock, insight):
        service = make_service(recommender, clock)
        with pytest.raises(ServingError):
            service.submit(insight)
        assert service.queue_depth == 0
        assert service.stats()["requests"]["submitted"] == 0

    def test_length_checked_against_the_resolved_version(
        self, recommender, clock
    ):
        from repro.core.multi_intention import IntentionConditionedModel

        service = make_service(recommender, clock)
        wide = IntentionConditionedModel(n_recipes=8, dim=16, seed=4)
        service.register_model("wide", InsightAlign(wide))
        with pytest.raises(ServingError):
            service.submit(insight_vectors(1)[0], model_version="wide")
        insight = np.random.default_rng(0).normal(size=wide.insight_dims)
        with pytest.raises(ServingError):
            service.submit(insight)          # the active model is narrower
        ticket = service.submit(insight, k=2, model_version="wide")
        service.flush()
        assert ticket.status is RequestStatus.COMPLETED


    @pytest.mark.parametrize("k", [2.5, float("nan"), "2", 0, -3])
    def test_non_integer_k_refused_before_queueing(self, recommender, clock,
                                                   k):
        service = make_service(recommender, clock)
        with pytest.raises(ValueError, match="k must be"):
            service.submit(insight_vectors(1)[0], k=k)
        assert service.queue_depth == 0
        assert service.stats()["requests"]["submitted"] == 0


def test_negative_cache_capacity_is_a_serving_error():
    with pytest.raises(ServingError):
        ServingConfig(cache_capacity=-1)


class TestSingleRequestPath:
    def test_single_request_matches_direct_recommend(self, recommender, clock):
        """A batch of one must not degrade: identical recipe sets, log-probs
        and resolved names as the facade's own recommend()."""
        service = make_service(recommender, clock)
        insight = insight_vectors(1, seed=9)[0]
        ticket = service.submit(insight, k=5)
        service.poll(force=True)
        served = ticket.result()
        direct = recommender.recommend(insight, k=5)
        assert [r.recipe_set for r in served] == [
            r.recipe_set for r in direct
        ]
        assert [r.recipe_names for r in served] == [
            r.recipe_names for r in direct
        ]
        for a, b in zip(served, direct):
            assert a.log_prob == pytest.approx(b.log_prob, abs=1e-9)

    def test_mixed_k_in_one_batch(self, recommender, clock):
        service = make_service(recommender, clock)
        insight = insight_vectors(1, seed=10)[0]
        t2 = service.submit(insight, k=2)
        t5 = service.submit(insight, k=5)
        service.poll(force=True)
        assert len(t2.result()) == 2
        assert len(t5.result()) == 5
        assert [r.recipe_set for r in t2.result()] == [
            r.recipe_set for r in t5.result()[:2]
        ]

    def test_bad_k_raises(self, recommender, clock):
        service = make_service(recommender, clock)
        with pytest.raises(ValueError):
            service.submit(insight_vectors(1)[0], k=0)


class TestCacheAndHotSwap:
    def test_repeat_insight_hits_cache(self, recommender, clock):
        service = make_service(recommender, clock)
        insight = insight_vectors(1, seed=3)[0]
        first = service.submit(insight, k=3)
        service.flush()
        # Float noise below the quantization decimals still hits.
        again = service.submit(insight + 1e-9, k=3)
        service.flush()
        assert again.cache_hit and not first.cache_hit
        assert [r.recipe_set for r in again.result()] == [
            r.recipe_set for r in first.result()
        ]
        assert service.stats()["cache"]["hits"] == 1

    def test_different_k_misses_cache(self, recommender, clock):
        service = make_service(recommender, clock)
        insight = insight_vectors(1, seed=4)[0]
        service.submit(insight, k=3)
        service.flush()
        other = service.submit(insight, k=4)
        service.flush()
        assert not other.cache_hit

    def test_hot_swap_invalidates_cache_and_changes_results(
        self, recommender, clock
    ):
        service = make_service(recommender, clock)
        insight = insight_vectors(1, seed=5)[0]
        before = service.submit(insight, k=3)
        service.flush()
        assert len(service.cache) == 1

        swapped = InsightAlign(InsightAlignModel(n_recipes=8, dim=16, seed=77))
        service.register_model("v2", swapped)
        service.hot_swap("v2")
        assert len(service.cache) == 0      # stale entries dropped atomically

        after = service.submit(insight, k=3)
        service.flush()
        assert not after.cache_hit          # decoded fresh on the new model
        expected = swapped.recommend(insight, k=3)
        assert [r.recipe_set for r in after.result()] == [
            r.recipe_set for r in expected
        ]
        stats = service.stats()
        assert stats["model_version"] == "v2"
        assert stats["hot_swaps"] == 1
        _ = before  # old ticket keeps its pre-swap result object

    def test_stats_snapshot_shape(self, recommender, clock):
        service = make_service(recommender, clock)
        for v in insight_vectors(4):
            service.submit(v, k=2)
        service.flush()
        stats = service.stats()
        assert stats["requests"]["completed"] == 4
        assert stats["latency_s"]["count"] == 4
        assert 0.0 <= stats["latency_s"]["p50"] <= stats["latency_s"]["p99"]
        assert stats["queue_depth_now"] == 0
        assert stats["batch_occupancy"]["max"] <= 1.0
