"""Parallel flow evaluation: process-pool batches vs. the sequential loop.

The production bottleneck InsightAlign faces is the P&R tool itself: one
flow evaluation is an external, wall-clock-bound invocation (hours on real
designs), so a batch of K proposals evaluated back-to-back costs K tool
latencies even though the evaluations are independent.  The contender is
:class:`~repro.runtime.FlowSession` with ``workers > 1``, which overlaps
those latencies across a process pool while guaranteeing bit-identical
results.

The gated section therefore models the tool with a fixed wall-clock latency
per invocation (``TOOL_LATENCY_S``) around a deterministic QoR synthesis —
exactly the regime the worker pool exists for.  An informational section also
reports real simulated-flow numbers and the persistent QoR cache's
warm-rerun speedup.

Acceptance gate (ISSUE 3): >= 3x speedup at 8 workers on a 16-job batch.
Set ``REPRO_PARALLEL_BENCH_TINY=1`` for the CI smoke configuration
(2 workers, 4 jobs, >= 1.2x) — same assertions, smaller scale.

``test_batch_flow_speedup`` (run with ``--batch`` or
``REPRO_FLOW_BENCH_BATCH=1``) gates the *stacked* simulator instead: one
``batch_size``-wide array-vectorized evaluation of real simulated flows
vs. the scalar single-process loop, results asserted bit-identical.
Acceptance gate (ISSUE 10): >= 3x at batch 16 on D3, or >= 1.3x in the
tiny CI configuration (batch 8 on D10).  The gated jobs differ only in
``opt.vt_swap_bias``, so all but one lane are placement twins (they copy
one placement); an ungated twin-free row, which varies
``PlacerParams.effort`` per lane, keeps the stacking gain on its own
visible.
"""

import os
import pickle
import time

import pytest

from repro.flow.parameters import FlowParameters, OptParams, PlacerParams
from repro.flow.result import FlowResult
from repro.flow.runner import REQUIRED_QOR_KEYS, run_flow
from repro.runtime import (
    FaultKind,
    FaultPlan,
    FlowExecutor,
    FlowJob,
    FlowSession,
    RuntimeConfig,
)

from common import record_bench, run_once

TINY = os.environ.get("REPRO_PARALLEL_BENCH_TINY", "") not in ("", "0")
WORKERS = 2 if TINY else 8
JOBS = 4 if TINY else 16
TOOL_LATENCY_S = 0.2 if TINY else 0.25
GATE = 1.2 if TINY else 3.0


def slow_flow(design, params, seed=0):
    """Stand-in for the external P&R tool: fixed wall-clock latency, then a
    deterministic QoR synthesized from the parameters (module-level so the
    pool can pickle it)."""
    time.sleep(TOOL_LATENCY_S)
    base = 1.0 + round(params.opt.vt_swap_bias, 6) + 0.01 * seed
    return FlowResult(
        design=str(design),
        qor={key: base * (index + 1) * 0.125
             for index, key in enumerate(REQUIRED_QOR_KEYS)},
        snapshots=[],
    )


def _batch():
    return [
        FlowJob("D1", FlowParameters(opt=OptParams(
            vt_swap_bias=1.0 + 0.02 * index)), seed=7)
        for index in range(JOBS)
    ]


def test_parallel_flow_speedup(benchmark, tmp_path):
    jobs = _batch()

    def run_all():
        table = {}

        # -- Gated section: latency-dominated tool, sequential vs. pool.
        sequential = FlowExecutor(flow_fn=slow_flow)
        started = time.perf_counter()
        seq_results = [
            sequential.execute(job.design, job.params, seed=job.seed)
            for job in jobs
        ]
        seq_s = time.perf_counter() - started

        with FlowSession(RuntimeConfig(workers=WORKERS),
                         flow_fn=slow_flow) as pool:
            started = time.perf_counter()
            par_results = pool.evaluate_strict(jobs)
            par_s = time.perf_counter() - started

        # The speedup only counts if the answers are the same answers.
        assert [r.qor for r in par_results] == [r.qor for r in seq_results]
        table["tool"] = {"seq_s": seq_s, "par_s": par_s,
                         "speedup": seq_s / par_s}

        # -- Gated section: supervised resilience.  Workers are killed by
        # a seeded fault plan mid-batch; the self-healing pool must still
        # finish every job, match the serial run bit-for-bit, and beat
        # the *clean* sequential loop on wall-clock — worker death cannot
        # cost more than the parallelism it interrupts.
        kill_plan = FaultPlan(
            rate=0.35, kinds=(FaultKind.WORKER_KILL,), seed=3
        )
        chaos_config = RuntimeConfig(
            fault_plan=kill_plan, max_respawns=4 * JOBS, poison_retries=2,
        )
        with FlowSession(chaos_config, flow_fn=slow_flow) as serial_chaos:
            chaos_reference = serial_chaos.evaluate(jobs)
        with FlowSession(chaos_config.replace(workers=WORKERS),
                         flow_fn=slow_flow) as chaos_pool:
            started = time.perf_counter()
            chaos_reports = chaos_pool.evaluate(jobs)
            chaos_s = time.perf_counter() - started
            chaos_stats = chaos_pool.stats()
        assert [(r.ok, r.result.qor if r.ok else str(r.error))
                for r in chaos_reports] == \
               [(r.ok, r.result.qor if r.ok else str(r.error))
                for r in chaos_reference]
        table["chaos"] = {
            "par_s": chaos_s,
            "restarts": chaos_stats["worker_restarts"],
            "redispatched": chaos_stats["jobs_redispatched"],
        }

        # -- Informational: real simulated flow + persistent QoR cache.
        real_jobs = [
            FlowJob("D1", FlowParameters(opt=OptParams(
                vt_swap_bias=1.0 + 0.05 * index)), seed=3)
            for index in range(3)
        ]
        cached = RuntimeConfig(qor_cache_path=tmp_path / "qor-cache")
        with FlowSession(cached) as cold:
            started = time.perf_counter()
            cold.evaluate_strict(real_jobs)
            cold_s = time.perf_counter() - started
        with FlowSession(cached) as warm:
            started = time.perf_counter()
            warm_reports = warm.evaluate(real_jobs)
            warm_s = time.perf_counter() - started
        assert all(report.cached for report in warm_reports)
        table["cache"] = {"cold_s": cold_s, "warm_s": warm_s,
                          "speedup": cold_s / max(warm_s, 1e-9)}
        return table

    table = run_once(benchmark, run_all)

    print(f"\n=== Parallel flow evaluation ({WORKERS} workers, "
          f"{JOBS}-job batch, {TOOL_LATENCY_S:.2f}s tool latency) ===")
    tool = table["tool"]
    print(f"sequential {tool['seq_s']:>7.2f}s   "
          f"parallel {tool['par_s']:>7.2f}s   "
          f"speedup {tool['speedup']:>5.1f}x   (gate >= {GATE:.1f}x)")
    chaos = table["chaos"]
    print(f"chaos pool {chaos['par_s']:>7.2f}s under seeded worker kills "
          f"({chaos['restarts']} restarts, "
          f"{chaos['redispatched']} re-dispatched)   "
          f"(gate <= sequential {tool['seq_s']:.2f}s)")
    cache = table["cache"]
    print(f"QoR cache: cold {cache['cold_s']*1e3:>7.1f}ms   "
          f"warm {cache['warm_s']*1e3:>7.1f}ms   "
          f"speedup {cache['speedup']:>5.0f}x")

    assert tool["speedup"] >= GATE, (
        f"parallel executor only {tool['speedup']:.2f}x at {WORKERS} "
        f"workers on {JOBS} jobs (gate {GATE:.1f}x)"
    )
    # Self-healing under worker kills must still beat the clean
    # sequential loop — recovery overhead bounded by the parallelism.
    assert chaos["par_s"] <= tool["seq_s"], (
        f"supervised pool took {chaos['par_s']:.2f}s under worker kills "
        f"vs {tool['seq_s']:.2f}s clean sequential"
    )
    # Warm cache reruns must be far cheaper than re-simulating.
    assert cache["speedup"] >= 5.0

    record_bench(
        "parallel_flow",
        gates={
            "speedup": {"gate": GATE, "measured": tool["speedup"]},
            "chaos_not_slower_than_sequential": {
                "gate": tool["seq_s"], "measured": chaos["par_s"],
            },
            "cache_speedup": {"gate": 5.0, "measured": cache["speedup"]},
        },
        medians={
            "sequential_s": tool["seq_s"],
            "parallel_s": tool["par_s"],
            "chaos_s": chaos["par_s"],
            "cache_cold_s": cache["cold_s"],
            "cache_warm_s": cache["warm_s"],
        },
        config={
            "tiny": TINY, "workers": WORKERS, "jobs": JOBS,
            "tool_latency_s": TOOL_LATENCY_S,
            "chaos_restarts": chaos["restarts"],
            "chaos_redispatched": chaos["redispatched"],
        },
    )


# ----------------------------------------------------------------------
# Stacked batch simulator vs. the scalar single-process loop (ISSUE 10).
# ----------------------------------------------------------------------
BATCH_TINY = os.environ.get("REPRO_FLOW_BENCH_BATCH_TINY", "") \
    not in ("", "0")
BATCH_DESIGN = "D10" if BATCH_TINY else "D3"
BATCH_WIDTH = 8 if BATCH_TINY else 16
BATCH_GATE = 1.3 if BATCH_TINY else 3.0


def _scalar_vs_stacked(jobs):
    """Time ``jobs`` through the scalar engine and as one stack; the
    stacked results must equal the scalar bits."""
    # The scalar engine, named explicitly: the default is stacked.
    with FlowSession(flow_fn=run_flow) as scalar:
        started = time.perf_counter()
        scalar_results = scalar.evaluate_strict(jobs)
        scalar_s = time.perf_counter() - started

    with FlowSession(RuntimeConfig(batch_size=BATCH_WIDTH)) as stacked:
        started = time.perf_counter()
        stacked_results = stacked.evaluate_strict(jobs)
        stacked_s = time.perf_counter() - started
        stats = stacked.stats()

    # The speedup only counts against the identical bits.
    assert [pickle.dumps(r, 5) for r in stacked_results] == \
        [pickle.dumps(r, 5) for r in scalar_results]
    assert stats["batch_calls"] == 1
    assert stats["batch_max_width"] == BATCH_WIDTH
    return {
        "scalar_s": scalar_s,
        "stacked_s": stacked_s,
        "speedup": scalar_s / stacked_s,
        "padding_waste": stats["batch_padding_waste"],
        "placement_twins": stats["batch_placement_twins"],
    }


def test_batch_flow_speedup(benchmark, request):
    if not (request.config.getoption("--batch")
            or os.environ.get("REPRO_FLOW_BENCH_BATCH")):
        pytest.skip("batch bench: pass --batch or set "
                    "REPRO_FLOW_BENCH_BATCH=1")
    jobs = [
        FlowJob(BATCH_DESIGN, FlowParameters(opt=OptParams(
            vt_swap_bias=1.0 + 0.02 * index)), seed=5)
        for index in range(BATCH_WIDTH)
    ]
    twin_free_jobs = [
        FlowJob(BATCH_DESIGN, FlowParameters(
            placer=PlacerParams(effort=1.0 + 0.02 * index),
            opt=OptParams(vt_swap_bias=1.0 + 0.02 * index)), seed=5)
        for index in range(BATCH_WIDTH)
    ]

    def run_all():
        # Warm the pristine-netlist cache so neither side pays generation.
        from repro.flow.runner import fresh_netlists

        fresh_netlists(BATCH_DESIGN, 5, 1)
        table = _scalar_vs_stacked(jobs)
        twin_free = _scalar_vs_stacked(twin_free_jobs)
        assert twin_free["placement_twins"] == 0
        return table, twin_free

    table, twin_free = run_once(benchmark, run_all)

    print(f"\n=== Stacked batch simulator ({BATCH_DESIGN}, "
          f"batch {BATCH_WIDTH}) ===")
    for label, row, gate in (
        ("gated", table, f"(gate >= {BATCH_GATE:.1f}x)"),
        ("twin-free", twin_free, "(ungated)"),
    ):
        print(f"{label:<10} scalar {row['scalar_s']:>7.2f}s   "
              f"stacked {row['stacked_s']:>7.2f}s   "
              f"speedup {row['speedup']:>5.2f}x   {gate:<16} "
              f"padding waste {row['padding_waste']:.3f}   "
              f"placement twins {row['placement_twins']}")

    assert table["speedup"] >= BATCH_GATE, (
        f"stacked simulator only {table['speedup']:.2f}x at batch "
        f"{BATCH_WIDTH} on {BATCH_DESIGN} (gate {BATCH_GATE:.1f}x)"
    )

    record_bench(
        "batch_flow",
        gates={
            "speedup": {"gate": BATCH_GATE, "measured": table["speedup"]},
        },
        medians={
            "scalar_s": table["scalar_s"],
            "stacked_s": table["stacked_s"],
        },
        config={
            "tiny": BATCH_TINY,
            "design": BATCH_DESIGN,
            "batch_width": BATCH_WIDTH,
            "padding_waste": table["padding_waste"],
            "placement_twins": table["placement_twins"],
        },
        ungated={"twin_free": twin_free},
    )
