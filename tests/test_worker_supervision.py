"""The self-healing worker pool: supervision, watchdog, poison, degrade.

What the supervisor promises (and these tests hold it to): a batch always
completes — every job yields a result or a *typed* error report — no matter
how many workers die, stall, or take the whole pool down with them.  Serial
(workers=1) runs the same machinery in-process, so the two paths are also
checked for identical typed outcomes and counter accounting.
"""

import pytest

from conftest import tiny_profile

from repro.errors import (
    FlowTimeout,
    RuntimeConfigError,
    WorkerCrash,
    WorkerPoolError,
)
from repro.flow.parameters import FlowParameters, OptParams
from repro.flow.result import FlowResult
from repro.flow.runner import (
    REQUIRED_QOR_KEYS,
    clear_netlist_cache,
    netlist_cache_info,
)
from repro.observability import get_registry, render_supervision
from repro.runtime import (
    FaultKind,
    FaultPlan,
    FlowJob,
    FlowSession,
    RuntimeConfig,
)
from repro.runtime.supervisor import START_METHOD

KILL_PLAN = FaultPlan(rate=1.0, kinds=(FaultKind.WORKER_KILL,), seed=11)


def quick_flow(design, params, seed=0):
    """Cheap deterministic flow stand-in (module-level: picklable)."""
    base = 1.0 + round(params.opt.vt_swap_bias, 6)
    return FlowResult(
        design=str(design),
        qor={key: base * (index + 1) * 0.125
             for index, key in enumerate(REQUIRED_QOR_KEYS)},
    )


def slow_flow(design, params, seed=0):
    """A flow that wedges long enough to trip a sub-second watchdog."""
    import time

    time.sleep(1.5)
    return quick_flow(design, params, seed)


def _jobs(profile, count=4):
    return [
        FlowJob(profile, FlowParameters(
            opt=OptParams(vt_swap_bias=1.0 + 0.05 * index)
        ), seed=3)
        for index in range(count)
    ]


class TestKnobValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_respawns": -1},
        {"max_respawns": 1.5},
        {"max_respawns": True},
        {"poison_retries": -1},
        {"watchdog_s": 0.0},
        {"watchdog_s": -2.0},
        {"degrade_to_serial": 1},
        {"watchdog_s": "1"},
        {"watchdog_s": True},
    ])
    def test_runtime_config_rejects_bad_knobs(self, kwargs):
        with pytest.raises(RuntimeConfigError):
            RuntimeConfig(**kwargs)

    def test_runtime_config_accepts_defaults_and_explicit(self):
        config = RuntimeConfig(
            max_respawns=0, poison_retries=0, watchdog_s=2.5,
            degrade_to_serial=False,
        )
        assert config.watchdog_s == 2.5
        assert RuntimeConfig().max_respawns == 8


class TestPoolWarmup:
    def test_custom_flow_pool_warms_no_netlist(self):
        """A custom flow owns its inputs: starting a pool for one
        generates no pristine netlist in the parent (nor in a worker)."""
        clear_netlist_cache()
        jobs = [
            FlowJob("D6", FlowParameters(
                opt=OptParams(vt_swap_bias=1.0 + 0.05 * index)
            ), seed=3)
            for index in range(4)
        ]
        with FlowSession(RuntimeConfig(workers=2),
                         flow_fn=quick_flow) as session:
            reports = session.evaluate(jobs)
            assert session.stats()["pool_live"]
        assert all(report.ok for report in reports)
        assert netlist_cache_info()["size"] == 0

    @pytest.mark.skipif(START_METHOD != "fork",
                        reason="only a forking pool warms in the parent")
    def test_builtin_pool_warms_custom_profile_in_parent(self):
        """The built-in engine's pool warms a custom profile too: the
        parent admits its pristine netlist once, before forking."""
        clear_netlist_cache()
        profile = tiny_profile()
        jobs = [
            FlowJob(profile, FlowParameters(
                opt=OptParams(vt_swap_bias=1.0 + 0.05 * index)
            ), seed=3)
            for index in range(4)
        ]
        with FlowSession(RuntimeConfig(workers=2)) as session:
            reports = session.evaluate(jobs)
            assert session.stats()["pool_live"]
        assert all(report.ok for report in reports)
        assert netlist_cache_info()["size"] == 1


class TestPoisonQuarantine:
    """A job that kills its worker every time it runs is poison: it must
    surface as a typed WorkerCrash report, not hang or sink the batch."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_poison_job_quarantined_with_typed_error(self, workers):
        profile = tiny_profile()
        with FlowSession(RuntimeConfig(
            workers=workers, fault_plan=KILL_PLAN,
            max_respawns=32, poison_retries=0,
        ), flow_fn=quick_flow) as executor:
            reports = executor.evaluate(_jobs(profile, count=3))
            assert len(reports) == 3
            for report in reports:
                assert not report.ok
                assert isinstance(report.error, WorkerCrash)
                assert "quarantined as poison" in str(report.error)
            stats = executor.stats()
            assert stats["poison_jobs"] == 3
            assert stats["jobs_redispatched"] == 0

    def test_serial_and_pool_quarantine_reports_identical(self):
        profile = tiny_profile()
        outcomes = {}
        for workers in (1, 2):
            with FlowSession(RuntimeConfig(
                workers=workers, fault_plan=KILL_PLAN,
                max_respawns=32, poison_retries=1,
            ), flow_fn=quick_flow) as executor:
                outcomes[workers] = [
                    (report.ok, type(report.error).__name__,
                     str(report.error))
                    for report in executor.evaluate(_jobs(profile))
                ]
        assert outcomes[1] == outcomes[2]


class TestWatchdog:
    def test_pool_watchdog_kills_stalled_worker(self):
        profile = tiny_profile()
        with FlowSession(RuntimeConfig(
            workers=2, watchdog_s=0.2, max_respawns=8,
        ), flow_fn=slow_flow) as executor:
            reports = executor.evaluate(_jobs(profile, count=2))
            for report in reports:
                assert not report.ok
                assert isinstance(report.error, FlowTimeout)
                assert "supervision watchdog" in str(report.error)
            assert executor.stats()["worker_restarts"] >= 1

    def test_inprocess_watchdog_same_typed_outcome(self):
        profile = tiny_profile()
        with FlowSession(RuntimeConfig(
            workers=1, watchdog_s=0.2,
        ), flow_fn=slow_flow) as executor:
            report = executor.evaluate(_jobs(profile, count=1))[0]
        assert isinstance(report.error, FlowTimeout)
        assert "supervision watchdog" in str(report.error)


class TestDegradation:
    def test_budget_exhaustion_degrades_to_serial(self):
        profile = tiny_profile()
        with FlowSession(RuntimeConfig(
            workers=2, fault_plan=KILL_PLAN,
            max_respawns=1, poison_retries=0,
        ), flow_fn=quick_flow) as executor:
            reports = executor.evaluate(_jobs(profile, count=6))
            # Every job still answered, all as typed quarantine reports
            # (rate=1.0 kills on every dispatch, serial or pooled).
            assert len(reports) == 6
            assert all(isinstance(r.error, WorkerCrash) for r in reports)
            stats = executor.stats()
            assert stats["degraded"] is True
            assert stats["workers_live"] == 0
            # A later batch goes straight to the serial path.
            more = executor.evaluate(_jobs(profile, count=2))
            assert all(isinstance(r.error, WorkerCrash) for r in more)

    def test_degrade_disabled_raises_worker_pool_error(self):
        profile = tiny_profile()
        with FlowSession(RuntimeConfig(
            workers=2, fault_plan=KILL_PLAN,
            max_respawns=0, poison_retries=0, degrade_to_serial=False,
        ), flow_fn=quick_flow) as executor:
            with pytest.raises(WorkerPoolError, match="respawn budget"):
                executor.evaluate(_jobs(profile, count=4))

    def test_degrade_disabled_holds_for_later_batches(self):
        """Once the pool is down with degrade_to_serial off, a later
        batch raises too instead of running its jobs in-process."""
        profile = tiny_profile()
        with FlowSession(RuntimeConfig(
            workers=2, fault_plan=KILL_PLAN,
            max_respawns=0, poison_retries=0, degrade_to_serial=False,
        ), flow_fn=quick_flow) as session:
            with pytest.raises(WorkerPoolError, match="respawn budget"):
                session.evaluate(_jobs(profile, count=4))
            before = session.stats()
            with pytest.raises(WorkerPoolError, match="respawn budget"):
                session.evaluate(_jobs(profile, count=4))
            after = session.stats()
            # Nothing ran in-process: no job was quarantined or re-run.
            assert after["poison_jobs"] == before["poison_jobs"]
            assert after["jobs_redispatched"] == before["jobs_redispatched"]
            assert after["degraded"] is True


class TestGracefulClose:
    def test_close_joins_workers_and_is_idempotent(self):
        profile = tiny_profile()
        executor = FlowSession(RuntimeConfig(workers=2), flow_fn=quick_flow)
        reports = executor.evaluate(_jobs(profile, count=2))
        assert all(report.ok for report in reports)
        supervisor = executor._pool
        assert supervisor is not None and supervisor.live_count() == 2
        executor.close(timeout_s=5.0)
        assert executor._pool is None
        assert supervisor.live_count() == 0
        executor.close()  # second close is a no-op

    def test_close_kills_wedged_worker_within_bound(self):
        import time

        profile = tiny_profile()
        executor = FlowSession(RuntimeConfig(
            workers=2, watchdog_s=0.2,
        ), flow_fn=slow_flow)
        executor.evaluate(_jobs(profile, count=1))
        started = time.monotonic()
        executor.close(timeout_s=1.0)
        assert time.monotonic() - started < 5.0
        assert executor._pool is None


class TestQueueDepthGauge:
    def _depth(self):
        return get_registry().gauge("flow_pool_queue_depth").value

    def test_gauge_zero_after_batch(self):
        profile = tiny_profile()
        with FlowSession(RuntimeConfig(workers=2), flow_fn=quick_flow) as ex:
            ex.evaluate(_jobs(profile))
            assert self._depth() == 0

    def test_gauge_zero_after_fully_cached_batch(self, tmp_path):
        profile = tiny_profile()
        jobs = _jobs(profile, count=2)
        with FlowSession(RuntimeConfig(
            qor_cache_path=tmp_path / "qor"
        ), flow_fn=quick_flow) as ex:
            ex.evaluate(jobs)
            # Leave a stale-looking value behind, then run an all-hit
            # batch: the gauge must still read 0 at batch end.
            get_registry().gauge("flow_pool_queue_depth").set(7)
            reports = ex.evaluate(jobs)
            assert all(report.cached for report in reports)
            assert self._depth() == 0

    def test_gauge_zero_after_degraded_batch(self):
        profile = tiny_profile()
        with FlowSession(RuntimeConfig(
            workers=2, fault_plan=KILL_PLAN,
            max_respawns=0, poison_retries=0,
        ), flow_fn=quick_flow) as ex:
            ex.evaluate(_jobs(profile))
            assert self._depth() == 0


class TestSupervisionObservability:
    def test_session_stats_carry_supervision_counters(self):
        profile = tiny_profile()
        config = RuntimeConfig(
            workers=2,
            fault_plan=FaultPlan(
                rate=0.4, kinds=(FaultKind.WORKER_KILL,), seed=2
            ),
            max_respawns=32, poison_retries=4,
        )
        with FlowSession(config) as session:
            outcomes = session.evaluate(_jobs(profile, count=6))
            assert all(outcome.ok for outcome in outcomes)
            stats = session.stats()
        for key in ("workers_live", "worker_restarts",
                    "jobs_redispatched", "poison_jobs", "degraded"):
            assert key in stats
        assert stats["worker_restarts"] >= 1
        assert stats["jobs_redispatched"] >= 1
        assert stats["degraded"] is False

    def test_restart_metric_split_by_mode(self):
        profile = tiny_profile()
        counter = get_registry().counter("flow_worker_restarts_total")
        before = counter.value_of(mode="inprocess")
        with FlowSession(RuntimeConfig(
            workers=1,
            fault_plan=FaultPlan(
                rate=0.4, kinds=(FaultKind.WORKER_KILL,), seed=2
            ),
            poison_retries=4,
        ), flow_fn=quick_flow) as ex:
            ex.evaluate(_jobs(profile, count=6))
        assert counter.value_of(mode="inprocess") > before

    def test_render_supervision_section(self):
        metrics = {
            "flow_workers_live": {
                "kind": "gauge", "values": {"{}": 2.0},
            },
            "flow_worker_restarts_total": {
                "kind": "counter", "values": {'{mode="pool"}': 3.0},
            },
        }
        text = render_supervision(metrics)
        assert "live workers" in text
        assert 'worker restarts{mode="pool"}' in text
        assert render_supervision({"flow_runs_total": {
            "kind": "counter", "values": {"{}": 1.0},
        }}) == ""
