"""Chaos rehearsal: seeded WORKER_KILL batches at several worker counts.

The three batch guarantees under real process death (workers SIGKILL'd by
the fault injector mid-batch):

1. **Completion** — every job in the batch comes back, as a result or a
   typed error report; the pool never hangs on a lost job.
2. **Bit-identity** — survivors (including jobs that were re-dispatched
   after killing a worker) match the workers=1 run byte for byte, and
   quarantined jobs carry the same typed error with the same message.
3. **Strict ordering** — ``evaluate_strict`` raises the *first* failure in
   submission order, not completion order.

The fault schedules are seeded and therefore fixed; the expected kill
pattern for each plan is spelled out next to it.
"""

import pickle

import pytest

from conftest import tiny_profile

from repro.errors import WorkerCrash
from repro.flow.parameters import FlowParameters, OptParams
from repro.flow.result import FlowResult
from repro.flow.runner import REQUIRED_QOR_KEYS
from repro.runtime import (
    FaultKind,
    FaultPlan,
    FlowJob,
    FlowSession,
    RuntimeConfig,
)

# Deterministic schedule for 8 jobs (probed once, fixed forever by the
# seed): consecutive worker kills per job index are
#   [0, 1, 1, 0, 2, 1, 0, 0]
# so with poison_retries=1 jobs 1/2/5 each kill one worker and survive
# their re-dispatch, job 4 kills two workers and is quarantined as
# poison, and the rest run clean.  Total kills: 5, re-dispatches: 4.
CHAOS_PLAN = FaultPlan(rate=0.45, kinds=(FaultKind.WORKER_KILL,), seed=13)
EXPECTED_KILLS = 5
EXPECTED_REDISPATCHES = 4
POISON_INDEX = 4

WORKER_COUNTS = (1, 2, 4)


def chaos_flow(design, params, seed=0):
    """Cheap deterministic flow stand-in (module-level: picklable)."""
    base = 1.0 + round(params.opt.vt_swap_bias, 6)
    return FlowResult(
        design=str(design),
        qor={key: base * (index + 1) * 0.125
             for index, key in enumerate(REQUIRED_QOR_KEYS)},
    )


def _jobs(profile, count=8):
    return [
        FlowJob(profile, FlowParameters(
            opt=OptParams(vt_swap_bias=1.0 + 0.05 * index)
        ), seed=3)
        for index in range(count)
    ]


def _run(workers):
    profile = tiny_profile()
    with FlowSession(RuntimeConfig(
        workers=workers, fault_plan=CHAOS_PLAN,
        max_respawns=32, poison_retries=1,
    ), flow_fn=chaos_flow) as executor:
        reports = executor.evaluate(_jobs(profile))
        stats = executor.stats()
    return reports, stats


@pytest.fixture(scope="module")
def serial_reference():
    """The workers=1 run every pool run must reproduce."""
    return _run(1)


class TestChaosEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_every_job_completes_bit_identical_to_serial(
        self, workers, serial_reference
    ):
        reference, _ = serial_reference
        reports, _ = _run(workers)
        assert len(reports) == len(reference)
        for index, (got, want) in enumerate(zip(reports, reference)):
            assert got is not None, f"job {index} never completed"
            assert got.ok == want.ok, f"job {index} outcome diverged"
            if want.ok:
                assert pickle.dumps(got.result) == pickle.dumps(want.result)
            else:
                assert type(got.error) is type(want.error)
                assert str(got.error) == str(want.error)

    def test_serial_schedule_matches_the_probed_pattern(
        self, serial_reference
    ):
        reports, stats = serial_reference
        failed = [i for i, r in enumerate(reports) if not r.ok]
        assert failed == [POISON_INDEX]
        assert isinstance(reports[POISON_INDEX].error, WorkerCrash)
        assert stats["jobs_redispatched"] == EXPECTED_REDISPATCHES
        assert stats["poison_jobs"] == 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_counters_reflect_the_schedule(self, workers):
        _, stats = _run(workers)
        assert stats["worker_restarts"] == EXPECTED_KILLS
        assert stats["jobs_redispatched"] == EXPECTED_REDISPATCHES
        assert stats["poison_jobs"] == 1
        assert stats["degraded"] is False


class TestStrictOrdering:
    # Plan seed 2 over 8 jobs draws consecutive kills
    #   [0, 0, 1, 1, 0, 1, 3, 2]
    # so with poison_retries=1 both jobs 6 and 7 quarantine; the first
    # failure in submission order is job 6.
    TWO_POISON_PLAN = FaultPlan(
        rate=0.45, kinds=(FaultKind.WORKER_KILL,), seed=2
    )

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_evaluate_strict_raises_first_failure_in_submission_order(
        self, workers
    ):
        profiles = [tiny_profile(name=f"C{index}") for index in range(8)]
        jobs = [
            FlowJob(profile, FlowParameters(), seed=3)
            for profile in profiles
        ]
        config = RuntimeConfig(
            workers=workers, fault_plan=self.TWO_POISON_PLAN,
            max_respawns=32, poison_retries=1,
        )
        with FlowSession(config) as session:
            with pytest.raises(WorkerCrash) as excinfo:
                session.evaluate_strict(jobs)
        # Job 7 also failed (and at workers>1 may well have finished
        # first), but strictness is defined by submission order.
        assert "C6" in str(excinfo.value)
