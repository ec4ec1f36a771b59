"""Integration tests: the observability wiring across flow execution,
training, serving — and the determinism guarantee (tracing on/off must be
bit-identical)."""

import numpy as np
import pytest

from conftest import tiny_profile
from repro.core.alignment import AlignmentConfig, AlignmentTrainer
from repro.core.dataset import DataPoint, OfflineDataset
from repro.core.model import InsightAlignModel
from repro.core.online import OnlineConfig, OnlineFineTuner
from repro.core.recommender import InsightAlign
from repro.flow.parameters import FlowParameters, OptParams
from repro.flow.result import FlowResult
from repro.flow.runner import REQUIRED_QOR_KEYS
from repro.insights.extractor import InsightVector
from repro.insights.schema import INSIGHT_DIMS
from repro.observability import (
    InMemoryExporter,
    MetricsRegistry,
    Tracer,
    get_registry,
    load_trace,
    set_registry,
    set_tracer,
    tracing,
)
from repro.runtime.clock import VirtualClock
from repro.runtime.executor import FlowExecutor, RetryPolicy
from repro.runtime.faults import FaultInjector, FaultKind
from repro.runtime.session import FlowJob, FlowSession, RuntimeConfig
from repro.serving import RecommendationService, ServingConfig


@pytest.fixture()
def observing():
    """A fresh registry + enabled in-memory tracer, restored afterwards."""
    exporter = InMemoryExporter()
    previous_tracer = set_tracer(Tracer(exporter=exporter))
    previous_registry = set_registry(MetricsRegistry())
    try:
        yield exporter, get_registry()
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)


@pytest.fixture(scope="module")
def archive():
    """A tiny synthetic archive (no real flow runs)."""
    rng = np.random.default_rng(3)
    points = []
    insights = {}
    for design in ("D6", "D10"):
        insights[design] = InsightVector(
            design, rng.normal(size=(INSIGHT_DIMS,)), {}
        )
        for _ in range(24):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=40))
            qor = {key: float(rng.uniform(0.5, 2.0))
                   for key in REQUIRED_QOR_KEYS}
            points.append(DataPoint(design, bits, qor))
    return OfflineDataset(points=points, insights=insights, seed=3)


def fake_flow(design, params, seed=0):
    """Deterministic per-parameter QoR, no simulation."""
    fingerprint = hash((
        round(params.placer.effort, 6),
        round(params.opt.vt_swap_bias, 6),
        round(params.route.effort, 6),
    ))
    base = 1.0 + (abs(fingerprint) % 1000) / 1000.0
    return FlowResult(
        design=str(design),
        qor={key: base * (index + 1) * 0.1
             for index, key in enumerate(REQUIRED_QOR_KEYS)},
    )


def _by_name(exporter):
    grouped = {}
    for record in exporter.records():
        grouped.setdefault(record.name, []).append(record)
    return grouped


class TestFlowExecutorWiring:
    def test_successful_run_emits_span_tree_and_counters(self, observing):
        exporter, registry = observing
        executor = FlowExecutor(flow_fn=fake_flow)
        report = executor.try_execute("D6", seed=4)
        assert report.ok
        spans = _by_name(exporter)
        (attempt,) = spans["flow.attempt"]
        (run,) = spans["flow.run"]
        assert attempt.parent_id == run.span_id
        assert run.attributes["design"] == "D6"
        assert run.status == "ok"
        assert registry.counter("flow_attempts_total").value == 1
        assert registry.counter("flow_runs_total").value_of(status="ok") == 1

    def test_faulty_run_counts_retries_and_failure_types(self, observing):
        exporter, registry = observing
        clock = VirtualClock()
        injector = FaultInjector(
            rate=1.0, seed=5, hang_s=100.0, clock=clock,
            kinds=[FaultKind.CRASH],
        )
        executor = FlowExecutor(
            flow_fn=injector.wrap(fake_flow),
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.5),
            deadline_s=10.0, clock=clock, sleep=clock.sleep, seed=5,
        )
        report = executor.try_execute("D6", seed=4)
        assert not report.ok
        spans = _by_name(exporter)
        assert len(spans["flow.attempt"]) == 3
        (run,) = spans["flow.run"]
        assert run.status == "error"
        assert registry.counter("flow_retries_total").value == 2
        # One failure per failed attempt, labelled by error type.
        failures = registry.counter("flow_failures_total")
        assert failures.value_of(type="FlowCrash") == 3
        assert (
            registry.counter("flow_runs_total").value_of(status="failed") == 1
        )


class TestPoolWorkerTracing:
    def test_worker_spans_never_reach_the_parent_trace(self, tmp_path):
        """Forked flow workers start trace-quiet: the parent's trace file
        holds unique span ids, and every parent link resolves in it."""
        jobs = [
            FlowJob(tiny_profile(),
                    FlowParameters(opt=OptParams(vt_swap_bias=b)), 0)
            for b in (0.8, 0.9, 1.0, 1.1, 1.2, 1.3)
        ]
        path = tmp_path / "trace.jsonl"
        with tracing(path):
            with FlowSession(RuntimeConfig(workers=2)) as session:
                assert all(o.ok for o in session.evaluate(jobs))
        spans = load_trace(path).spans
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids)), sorted(
            (s.span_id, s.name) for s in spans
        )
        assert all(s.parent_id is None or s.parent_id in ids for s in spans)


class TestServingWiring:
    def _service(self, clock=None):
        recommender = InsightAlign(InsightAlignModel(seed=0))
        config = ServingConfig(max_batch_size=4, max_wait_s=0.0,
                               cache_capacity=8)
        if clock is None:
            return RecommendationService(recommender, config)
        return RecommendationService(
            recommender, config, clock=clock, sleep=clock.sleep
        )

    def test_request_spans_cover_admission_to_response(self, observing):
        exporter, _ = observing
        service = self._service()
        rng = np.random.default_rng(0)
        insight = rng.normal(size=(INSIGHT_DIMS,))
        tickets = [service.submit(insight, k=2)]
        service.flush()  # first batch decodes and populates the cache
        tickets += [service.submit(insight, k=2) for _ in range(2)]
        service.flush()  # second batch is served from the cache
        assert all(t.done for t in tickets)
        spans = _by_name(exporter)
        requests = spans["serve.request"]
        assert len(requests) == 3
        assert all(r.attributes["outcome"] == "completed" for r in requests)
        # Identical insights: one decode miss, then two cache hits.
        assert sum(r.attributes["cache_hit"] for r in requests) == 2
        batches = spans["serve.batch"]
        assert len(batches) == 2
        (decode,) = spans["serve.decode"]
        assert decode.parent_id == batches[0].span_id
        assert decode.attributes["rows"] == 1

    def test_expired_request_span_is_marked_error(self, observing):
        exporter, _ = observing
        clock = VirtualClock()
        service = self._service(clock=clock)
        ticket = service.submit(
            np.zeros(INSIGHT_DIMS), k=2, deadline_s=0.5
        )
        clock.advance(1.0)
        service.poll(force=True)
        assert ticket.done
        spans = _by_name(exporter)
        (request,) = spans["serve.request"]
        assert request.attributes["outcome"] == "expired"
        assert request.status == "error"

    def test_stats_shape_is_backward_compatible(self, observing):
        service = self._service()
        service.submit(np.zeros(INSIGHT_DIMS), k=2)
        service.flush()
        stats = service.stats()
        assert stats["requests"]["completed"] == 1
        assert set(stats["cache"]) >= {"hits", "misses", "hit_rate"}
        assert "p99" in stats["latency_s"]


class TestTrainingWiring:
    def test_alignment_emits_epoch_spans_and_metrics(self, observing, archive):
        exporter, registry = observing
        config = AlignmentConfig(epochs=2, pairs_per_design=16,
                                 batch_size=32, seed=3)
        AlignmentTrainer(config).train(archive)
        spans = _by_name(exporter)
        (train,) = spans["align.train"]
        epochs = spans["align.epoch"]
        assert len(epochs) == 2
        assert all(e.parent_id == train.span_id for e in epochs)
        assert registry.counter("alignment_epochs_total").value == 2
        assert registry.gauge("alignment_probe_loss").value != 0
        throughput = registry.histogram("alignment_pairs_per_second")
        assert throughput.count == 2

    def test_online_loop_emits_connected_tree(self, observing, archive):
        exporter, registry = observing
        tuner = OnlineFineTuner(
            # fake_flow carries no stage snapshots, so insight refresh
            # (which re-extracts from the best run) must stay off.
            OnlineConfig(iterations=2, k=3, seed=3, insight_refresh=0.0),
            flow_fn=fake_flow,
        )
        model = InsightAlignModel(seed=3)
        result = tuner.run(model, archive, "D6")
        assert len(result.records) == 2
        spans = _by_name(exporter)
        (run,) = spans["online.run"]
        iterations = spans["online.iteration"]
        assert [s.parent_id for s in iterations] == [run.span_id] * 2
        evaluates = spans["online.evaluate"]
        assert len(evaluates) == 2
        # Every flow.run nests under the session's flow.batch, and every
        # flow.batch under an online.evaluate span.
        evaluate_ids = {s.span_id for s in evaluates}
        batch_ids = {s.span_id for s in spans["flow.batch"]}
        assert spans["flow.run"]
        assert all(
            s.parent_id in batch_ids for s in spans["flow.run"]
        )
        assert all(
            s.parent_id in evaluate_ids for s in spans["flow.batch"]
        )
        assert len(spans["online.update"]) == 2
        assert registry.counter("online_iterations_total").value == 2
        assert registry.gauge("online_best_score").value != 0


class TestDeterminism:
    """Tracing must never change a result: spans consume no RNG."""

    def test_alignment_weights_bit_identical(self, observing, archive):
        config = AlignmentConfig(epochs=2, pairs_per_design=16,
                                 batch_size=32, seed=7)
        traced, _ = AlignmentTrainer(config).train(archive)
        # Second run with the default (disabled) tracer and a quiet
        # registry.
        set_tracer(None)
        untraced, _ = AlignmentTrainer(config).train(archive)
        for key, value in traced.state_dict().items():
            np.testing.assert_array_equal(value, untraced.state_dict()[key])

    def test_serving_results_identical(self, observing):
        def decode_once():
            recommender = InsightAlign(InsightAlignModel(seed=1))
            service = RecommendationService(
                recommender,
                ServingConfig(max_batch_size=4, cache_capacity=0),
            )
            rng = np.random.default_rng(2)
            tickets = [
                service.submit(rng.normal(size=(INSIGHT_DIMS,)), k=3)
                for _ in range(4)
            ]
            service.flush()
            return [
                [(r.recipe_set, r.log_prob) for r in t.result()]
                for t in tickets
            ]

        traced = decode_once()
        set_tracer(None)
        untraced = decode_once()
        assert traced == untraced
