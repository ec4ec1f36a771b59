"""FlowSession / RuntimeConfig: validation, runtime=, and the one-door rule.

Three concerns live here:

1. ``RuntimeConfig`` rejects every malformed field with a typed
   ``RuntimeConfigError`` before any flow runs, and ``FlowSession``
   rejects contradictory compositions (injected executor + pool/cache).
2. Flow consumers take their runtime as ``runtime=RuntimeConfig(...)``
   and produce the same results through it.
3. The refactor's structural invariant: nothing outside
   ``repro/runtime/`` constructs a ``FlowExecutor`` directly any more —
   every consumer goes through a session, the only flow-runtime door.

``evaluate_at`` — the distributed actors' single-job door — is pinned to
``evaluate`` outcome by outcome under faults, poison and the QoR cache.
"""

import pathlib
import re

import pytest

from conftest import tiny_profile
from repro.errors import FlowCrash, RuntimeConfigError, WorkerCrash
from repro.flow.parameters import FlowParameters, OptParams
from repro.flow.runner import (
    netlist_cache_info,
    netlist_cache_limit,
    run_flow,
)
from repro.observability import (
    InMemoryExporter,
    Tracer,
    set_tracer,
)
from repro.runtime import (
    FaultKind,
    FaultPlan,
    FlowExecutor,
    FlowJob,
    FlowSession,
    RetryPolicy,
    RuntimeConfig,
)
from test_parallel_executor import toy_flow

SRC_ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


class TestRuntimeConfigValidation:
    @pytest.mark.parametrize("bad", [
        dict(workers=0),
        dict(workers=-2),
        dict(workers=1.5),
        dict(workers=True),
        dict(workers="4"),
        dict(qor_cache_path=123),
        dict(policy="retry-three-times"),
        dict(deadline_s=0.0),
        dict(deadline_s=-5.0),
        dict(min_snapshots=-1),
        dict(min_snapshots=2.5),
        dict(seed="zero"),
        dict(seed=False),
        dict(fault_plan="crash-everything"),
        dict(deadline_s="5"),
        dict(deadline_s=True),
        dict(min_snapshots=True),
        dict(qor_cache_path=""),
    ])
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(**bad)

    def test_defaults_are_valid_and_frozen(self):
        config = RuntimeConfig()
        assert config.workers == 1
        with pytest.raises(AttributeError):
            config.workers = 2

    def test_replace_revalidates(self):
        config = RuntimeConfig(workers=2)
        assert config.replace(workers=4).workers == 4
        with pytest.raises(RuntimeConfigError):
            config.replace(workers=0)

    def test_accepts_full_composition(self):
        config = RuntimeConfig(
            workers=2,
            qor_cache_path="/tmp/qor",
            policy=RetryPolicy(max_attempts=2),
            deadline_s=60.0,
            min_snapshots=3,
            seed=7,
            fault_plan=FaultPlan(rate=0.5),
        )
        assert config.policy.max_attempts == 2


class TestFlowSessionComposition:
    def test_rejects_non_config(self):
        with pytest.raises(RuntimeConfigError):
            FlowSession({"workers": 2})

    def test_injected_executor_conflicts(self):
        executor = FlowExecutor(flow_fn=toy_flow)
        with pytest.raises(RuntimeConfigError):
            FlowSession(
                RuntimeConfig(workers=2), executor=executor
            )
        with pytest.raises(RuntimeConfigError):
            FlowSession(
                RuntimeConfig(qor_cache_path="/tmp/qor"), executor=executor
            )
        with pytest.raises(RuntimeConfigError):
            FlowSession(
                RuntimeConfig(fault_plan=FaultPlan(rate=1.0)),
                executor=executor,
            )
        with pytest.raises(RuntimeConfigError):
            FlowSession(
                RuntimeConfig(), flow_fn=toy_flow, executor=executor
            )

    def test_single_job_conveniences(self):
        profile = tiny_profile()
        with FlowSession(RuntimeConfig()) as session:
            outcome = session.run(profile, FlowParameters(), seed=3)
            assert outcome.ok and not outcome.cached
            result = session.execute(profile, FlowParameters(), seed=3)
        direct = run_flow(profile, FlowParameters(), seed=3)
        assert outcome.result.qor == direct.qor
        assert result.qor == direct.qor

    def test_evaluate_accepts_tuples_and_preserves_order(self):
        profile = tiny_profile()
        jobs = [
            (profile, FlowParameters(opt=OptParams(vt_swap_bias=b)), 3)
            for b in (1.1, 0.9, 1.0)
        ]
        with FlowSession(RuntimeConfig()) as session:
            outcomes = session.evaluate(jobs)
        for (design, params, seed), outcome in zip(jobs, outcomes):
            assert outcome.result.qor == run_flow(design, params, seed=seed).qor

    def test_evaluate_strict_raises_first_failure_in_submission_order(self):
        # rate=1.0 crashes every job; the raised error must belong to job 0.
        plan = FaultPlan(rate=1.0, kinds=(FaultKind.CRASH,), seed=5)
        config = RuntimeConfig(
            workers=1, fault_plan=plan, policy=RetryPolicy(max_attempts=1)
        )
        with FlowSession(config, flow_fn=toy_flow) as session:
            jobs = [
                FlowJob("T", FlowParameters(opt=OptParams(vt_swap_bias=b)), 0)
                for b in (1.0, 1.1)
            ]
            outcomes = session.evaluate(jobs)
            assert all(not o.ok for o in outcomes)
            with pytest.raises(FlowCrash):
                session.evaluate_strict(jobs)

    def test_stats_shape(self):
        profile = tiny_profile()
        with FlowSession(RuntimeConfig()) as session:
            session.run(profile, FlowParameters(), seed=1)
            stats = session.stats()
        assert stats["workers"] == 1
        assert stats["jobs_run"] == 1
        injected = FlowSession(RuntimeConfig(), executor=FlowExecutor())
        assert injected.stats()["injected"] is True
        injected.close()  # no-op: nothing to release


class TestEvaluateAt:
    """``evaluate_at(job, index=i)`` reproduces position ``i`` of
    ``evaluate`` — the contract the distributed actors rely on."""

    JOBS = [
        FlowJob("D6", FlowParameters(
            opt=OptParams(vt_swap_bias=1.0 + 0.05 * index)
        ), seed=index % 2)
        for index in range(6)
    ]

    @staticmethod
    def _view(outcome):
        return (outcome.ok, type(outcome.error).__name__,
                str(outcome.error), len(outcome.attempts))

    def _pinned(self, config):
        """Evaluate every job both ways on one session; compare."""
        with FlowSession(config, flow_fn=toy_flow) as session:
            at = [
                session.evaluate_at(job, index=index)
                for index, job in enumerate(self.JOBS)
            ]
            batch = session.evaluate(self.JOBS)
        assert [self._view(o) for o in at] == \
            [self._view(o) for o in batch]
        return at

    def test_in_tool_faults_with_deadline_and_retries(self):
        plan = FaultPlan(
            rate=0.5,
            kinds=(FaultKind.CRASH, FaultKind.CORRUPT_QOR, FaultKind.HANG),
            seed=17, hang_s=1000.0,
        )
        at = self._pinned(RuntimeConfig(
            fault_plan=plan, deadline_s=10.0,
            policy=RetryPolicy(max_attempts=2, base_delay_s=0.01),
        ))
        assert any(not o.ok for o in at)              # faults did fire
        assert any(o.ok and len(o.attempts) == 2 for o in at)  # retried

    @pytest.mark.parametrize("workers", (1, 2))
    def test_worker_kill_quarantine(self, workers):
        plan = FaultPlan(rate=0.5, kinds=(FaultKind.WORKER_KILL,), seed=17)
        at = self._pinned(RuntimeConfig(
            workers=workers, fault_plan=plan, poison_retries=0,
            max_respawns=32,
        ))
        assert any(isinstance(o.error, WorkerCrash) for o in at)
        assert any(o.ok for o in at)

    def test_cache_serves_a_repeat(self, tmp_path):
        reference = self._pinned(RuntimeConfig())
        config = RuntimeConfig(qor_cache_path=tmp_path / "qor")
        with FlowSession(config, flow_fn=toy_flow) as session:
            first = [
                session.evaluate_at(job, index=index)
                for index, job in enumerate(self.JOBS)
            ]
            again = [
                session.evaluate_at(job, index=index)
                for index, job in enumerate(self.JOBS)
            ]
        assert [self._view(o) for o in first] == \
            [self._view(o) for o in reference]
        assert not any(o.cached for o in first)
        assert all(o.cached for o in again)
        assert [o.result.qor for o in again] == \
            [o.result.qor for o in first]


class TestTraceToggle:
    def _spans_during(self, config):
        profile = tiny_profile()
        exporter = InMemoryExporter()
        previous = set_tracer(Tracer(exporter=exporter))
        try:
            with FlowSession(config) as session:
                session.run(profile, FlowParameters(), seed=2)
        finally:
            set_tracer(previous)
        return exporter.records()

    def test_trace_on_emits_flow_spans(self):
        spans = self._spans_during(RuntimeConfig())
        assert {s.name for s in spans} >= {"flow.run", "flow.batch"}

    def test_results_identical_either_way(self):
        profile = tiny_profile()
        outcomes = []
        for tracer in (Tracer(exporter=InMemoryExporter()),
                       Tracer(enabled=False)):
            previous = set_tracer(tracer)
            try:
                with FlowSession(RuntimeConfig()) as session:
                    outcomes.append(
                        session.execute(profile, FlowParameters(), 4)
                    )
            finally:
                set_tracer(previous)
        assert outcomes[0].qor == outcomes[1].qor


class TestRuntimeKeyword:
    """The ``runtime=RuntimeConfig(...)`` spelling every flow consumer
    takes in place of per-call-site worker and cache keywords."""

    def test_online_config_runtime_workers(self):
        from repro.core.online import OnlineConfig

        config = OnlineConfig(runtime=RuntimeConfig(workers=2))
        assert config.resolved_runtime().workers == 2
        # Without one, the loop runs in-process under its own seed.
        assert OnlineConfig(seed=7).resolved_runtime() == \
            RuntimeConfig(seed=7)

    def test_online_config_runtime_qor_cache_path(self, tmp_path):
        from repro.core.online import OnlineConfig

        path = str(tmp_path / "qor")
        config = OnlineConfig(runtime=RuntimeConfig(qor_cache_path=path))
        assert config.resolved_runtime().qor_cache_path == path

    def test_parallel_flow_objective_matches_run_flow(self):
        from repro.baselines.common import ParallelFlowObjective

        profile = tiny_profile()
        objective = ParallelFlowObjective(
            profile, lambda qor: -qor["power_mw"],
            runtime=RuntimeConfig(workers=1),
        )
        try:
            score = objective((0,) * 40)
        finally:
            objective.close()
        direct = run_flow(profile, FlowParameters(), seed=0)
        assert score == -direct.qor["power_mw"]


class TestNetlistCacheLimit:
    def test_restores_previous_limit(self):
        before = netlist_cache_info()["limit"]
        with netlist_cache_limit(before + 7):
            assert netlist_cache_info()["limit"] == before + 7
        assert netlist_cache_info()["limit"] == before

    def test_restores_on_exception(self):
        before = netlist_cache_info()["limit"]
        with pytest.raises(RuntimeError):
            with netlist_cache_limit(before + 3):
                raise RuntimeError("boom")
        assert netlist_cache_info()["limit"] == before

    def test_rejects_bad_limit(self):
        before = netlist_cache_info()["limit"]
        with pytest.raises(ValueError):
            with netlist_cache_limit(0):
                pass
        assert netlist_cache_info()["limit"] == before


class TestOneDoorRule:
    """No module outside repro/runtime builds the executors directly."""

    # Matches constructor calls like ``FlowExecutor(`` but not the name
    # alone (imports, type hints, isinstance checks are fine).
    CONSTRUCT = re.compile(r"\b(?:Parallel)?FlowExecutor\s*\(")

    def test_executors_only_constructed_inside_runtime(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if "runtime" in path.relative_to(SRC_ROOT).parts:
                continue
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if self.CONSTRUCT.search(line):
                    offenders.append(f"{path}:{number}: {line.strip()}")
        assert not offenders, (
            "flow executors must be composed via repro.runtime.FlowSession; "
            "direct construction found in:\n" + "\n".join(offenders)
        )
