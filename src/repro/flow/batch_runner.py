"""Array-vectorized batch flow runner: N jobs through one stacked pipeline.

``run_flow_batch`` is the batched sibling of :func:`repro.flow.runner.run_flow`.
Jobs that share a (profile, seed) pair — and therefore one pristine netlist —
are evaluated as *lanes* of stacked array kernels: placement, STA, CTS,
routing, optimization and power all operate on ``(B, ...)`` stacks where the
recipes differ only in parameters.  Mixed (profile, seed) inputs are grouped
internally and results are reassembled in submission order.

A stack starts from the pair's cached read-only
:class:`~repro.netlist.compiled.DesignTemplate` (``runner.design_template``):
one compiled design shared by every stack on the pair, and B private copies
of its pristine lane arrays.  Every kernel reads and writes those arrays,
and the reports and snapshot metrics are computed from them; a ``Netlist``
is unpickled (``fresh_netlists``) only for a lane that hold fixing may
splice.

This is the engine the runtime runs: :class:`~repro.runtime.FlowSession`
stacks every group of jobs sharing a (profile, seed) pair into one
``run_flow_batch`` call (``RuntimeConfig.batch_size``, default 16, caps the
lanes per stack), and every job that does not stack — a lone job, or any
job under a per-job fault plan, deadline or watchdog — runs as a width-1
stack through :func:`run_flow_lane`.

The scalar ``run_flow`` remains the bit-exactness reference, reachable from
a session as ``flow_fn=run_flow``: every snapshot dict, QoR expression and
report produced here reuses the scalar AST order, and the equivalence suite
asserts bitwise identity against it and against the committed golden pins
(``tests/golden/flow_pins.json``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cts.batch import synthesize_clock_tree_batch
from repro.cts.skew import analyze_skew
from repro.flow.batch_opt import optimize_batch
from repro.flow.parameters import FlowParameters
from repro.flow.result import FlowResult, StageSnapshot
from repro.flow.runner import (
    _endpoint_slack_stats,
    _runtime_proxy,
    design_template,
    fresh_netlists,
    validate_qor,
)
from repro.flow.stages import FlowStage
from repro.netlist.compiled import LaneState
from repro.netlist.profiles import DesignProfile, get_profile
from repro.placement.batch import place_batch
from repro.power.batch import analyze_power_batch
from repro.routing.batch import global_route_batch
from repro.routing.drc import estimate_drcs
from repro.timing.vector_sta import LaneTiming, run_sta_batch

# One job: (design, params, seed) — either a tuple or any object with
# .design/.params/.seed attributes (e.g. runtime FlowJob).
BatchJob = Union[Tuple, object]


def _job_fields(job: BatchJob):
    if hasattr(job, "design"):
        return job.design, job.params, job.seed
    design, params, seed = job
    return design, params, seed


def run_flow_batch(
    jobs: Sequence[BatchJob],
    stats: Optional[Dict[str, int]] = None,
) -> List[FlowResult]:
    """Run every job through the stacked pipeline; results in input order.

    Jobs are grouped by (profile name, seed); each group shares one compiled
    design and runs as one stack.  ``stats``, when given, accumulates batch
    bookkeeping: ``jobs`` / ``calls`` totals, ``placement_twins`` (lanes
    whose placer settings repeat an earlier lane's, so they copy its
    placement instead of computing one), plus ``lane_steps`` and
    ``frozen_steps`` from the iterative kernels (frozen steps are the
    padding-waste measure — lane-iterations held masked because a sibling
    lane had a larger budget).  Both step counts cover computed lanes
    only: placement twins add none.
    """
    groups: Dict[Tuple[str, int], List[int]] = {}
    profiles: List[DesignProfile] = []
    params_all: List[FlowParameters] = []
    seeds: List[int] = []
    for i, job in enumerate(jobs):
        design, params, seed = _job_fields(job)
        profile = get_profile(design) if isinstance(design, str) else design
        profiles.append(profile)
        params_all.append(params)
        seeds.append(int(seed))
        groups.setdefault((profile.name, int(seed)), []).append(i)

    results: List[Optional[FlowResult]] = [None] * len(jobs)
    for members in groups.values():
        group_results = _run_group(
            profiles[members[0]],
            [params_all[i] for i in members],
            seeds[members[0]],
            stats,
        )
        for i, result in zip(members, group_results):
            results[i] = result
    return results  # type: ignore[return-value]


def run_flow_lane(
    design: Union[str, DesignProfile],
    params: FlowParameters = FlowParameters(),
    seed: int = 0,
) -> FlowResult:
    """One job as a width-1 stack, behind the scalar ``run_flow`` signature.

    The runtime's built-in flow function: the default of
    :class:`~repro.runtime.executor.FlowExecutor` and of every job the
    session runs one at a time.
    """
    return run_flow_batch([(design, params, seed)])[0]


def _run_group(
    profile: DesignProfile,
    params_list: Sequence[FlowParameters],
    seed: int,
    stats: Optional[Dict[str, int]],
) -> List[FlowResult]:
    B = len(params_list)
    if stats is not None:
        stats["jobs"] = stats.get("jobs", 0) + B
        stats["calls"] = stats.get("calls", 0) + 1
        stats["max_width"] = max(stats.get("max_width", 0), B)
    template = design_template(profile, seed)
    design, constraints = template.design, template.constraints
    lanes = template.lanes(B)
    scales = [p.opt.vt_swap_bias ** -0.25 for p in params_list]
    snapshots: List[List[StageSnapshot]] = [[] for _ in range(B)]

    # ---- Stage 1: placement -------------------------------------------
    placements = place_batch(
        design, lanes, [p.placer for p in params_list], seed=seed, stats=stats
    )
    pre_routes = run_sta_batch(design, lanes, constraints, [None] * B, scales)
    for b in range(B):
        placement, pre_route = placements[b], pre_routes[b]
        snapshots[b].append(StageSnapshot(FlowStage.PLACEMENT, {
            "hpwl_um": placement.total_hpwl_um,
            "peak_density": placement.peak_density,
            "congestion_early": placement.congestion_checkpoints["early"]["peak"],
            "congestion_mid": placement.congestion_checkpoints["mid"]["peak"],
            "congestion_late": placement.congestion_checkpoints["late"]["peak"],
            "congestion_final": placement.peak_congestion,
            "congestion_hotspot_fraction":
                placement.final_congestion.get("hotspot_fraction", 0.0),
            "pre_route_wns_ps": pre_route.wns_ps,
            "pre_route_tns_ps": pre_route.tns_ps,
            "pre_route_violations": float(pre_route.violating_endpoints),
            "endpoint_count": float(pre_route.endpoint_count),
            "weak_cell_pct": pre_route.weak_cell_pct,
            "mean_positive_slack_ps": _mean_positive(pre_route.setup),
            **template.placement_stats,
            "period_ps": constraints.period_ps,
        }))

    # ---- Stage 2: clock-tree synthesis --------------------------------
    trees = synthesize_clock_tree_batch(
        design, lanes, [p.cts for p in params_list], seed=seed
    )
    post_cts_list = run_sta_batch(design, lanes, constraints, trees, scales)
    for b in range(B):
        tree, post_cts = trees[b], post_cts_list[b]
        snapshots[b].append(StageSnapshot(FlowStage.CTS, {
            "global_skew_ps": tree.global_skew_ps,
            "mean_latency_ps": tree.mean_latency_ps,
            "clock_buffers": float(tree.buffer_count),
            "clock_wirelength_um": tree.wirelength_um,
            "post_cts_wns_ps": post_cts.wns_ps,
            "post_cts_tns_ps": post_cts.tns_ps,
            "harmful_skew_paths": float(post_cts.harmful_skew_paths),
            "hold_wns_ps": post_cts.hold_wns_ps,
            "hold_violations": float(post_cts.hold_violating_endpoints),
            "tree_depth": float(tree.tree_depth),
        }))

    # ---- Stage 3: global routing ---------------------------------------
    critical_nets = [
        _critical_nets(lanes[b], post_cts_list[b]) for b in range(B)
    ]
    routings = global_route_batch(
        design, lanes, placements[0].grid,
        [p.route for p in params_list], critical_nets, seed=seed, stats=stats,
    )
    post_routes = run_sta_batch(design, lanes, constraints, trees, scales)
    for b in range(B):
        routing, post_route = routings[b], post_routes[b]
        snapshots[b].append(StageSnapshot(FlowStage.ROUTING, {
            "overflow_initial": routing.overflow_initial,
            "overflow_residual": routing.overflow_total,
            "detour_wirelength_um": routing.detour_wirelength_um,
            "routed_wirelength_um": routing.routed_wirelength_um,
            "detour_ratio": routing.detour_ratio,
            "promoted_nets": float(routing.promoted_nets),
            "post_route_wns_ps": post_route.wns_ps,
            "post_route_tns_ps": post_route.tns_ps,
            "route_congestion_peak": routing.congestion.get("peak", 0.0),
            "route_congestion_p95": routing.congestion.get("p95", 0.0),
        }))

    # ---- Stage 4: optimization -----------------------------------------
    # Starts from the post-route STA: nothing ran since.  A lane that hold
    # fixing may splice gets one pristine netlist (and may be rebound).
    opt_results = optimize_batch(
        lanes, constraints, trees,
        [p.opt for p in params_list], [p.tradeoff for p in params_list],
        post_routes, lambda: fresh_netlists(profile, seed, 1)[0],
    )
    for b in range(B):
        opt_result = opt_results[b]
        final_timing = opt_result.report
        snapshots[b].append(StageSnapshot(FlowStage.OPTIMIZATION, {
            "upsized": float(opt_result.upsized),
            "downsized": float(opt_result.downsized),
            "hold_fix_count": float(opt_result.hold_fix_count),
            "useful_skew_endpoints": float(opt_result.useful_skew_endpoints),
            "passes_run": float(opt_result.passes_run),
            "pre_opt_tns_ps": opt_result.pre_tns_ps,
            "post_opt_tns_ps": final_timing.tns_ps,
            "post_opt_wns_ps": final_timing.wns_ps,
            "tns_improvement_ps": opt_result.pre_tns_ps - final_timing.tns_ps,
        }))

    # ---- Stage 5: signoff ----------------------------------------------
    # Hold fixing may have diverged lane topologies; power runs per
    # design-identity group so diverged lanes use their own compiled arrays.
    power_groups: Dict[int, List[int]] = {}
    for b in range(B):
        power_groups.setdefault(id(lanes[b].design), []).append(b)
    powers = [None] * B
    for members in power_groups.values():
        reports = analyze_power_batch(
            lanes[members[0]].design,
            [lanes[b] for b in members],
            [trees[b] for b in members],
            [profile.leakage_bias * params_list[b].opt.vt_swap_bias
             for b in members],
            [params_list[b].opt.clock_gating_efficiency for b in members],
        )
        for b, report in zip(members, reports):
            powers[b] = report

    out: List[FlowResult] = []
    scale = profile.reported_scale
    for b in range(B):
        lane = lanes[b]
        cell_count = lane.design.cell_count
        area = lane.total_area()
        final_timing = opt_results[b].report
        power = powers[b]
        final_skew = analyze_skew(trees[b], final_timing.critical_launch_capture)
        drcs = estimate_drcs(routings[b], placements[b].peak_density, cell_count)
        runtime = _runtime_proxy(params_list[b])
        qor = {
            "tns_ns": final_timing.tns_ps * 1e-3 * scale ** 0.5,
            "wns_ns": final_timing.wns_ps * 1e-3,
            "hold_tns_ns": final_timing.hold_tns_ps * 1e-3 * scale ** 0.5,
            "power_mw": power.total_mw * scale,
            "leakage_mw": power.leakage_mw * scale,
            "area_um2": area * scale,
            "wirelength_um": routings[b].routed_wirelength_um * scale,
            "drc_count": float(drcs),
            "hold_fix_count": float(opt_results[b].hold_fix_count),
            "runtime_proxy": runtime,
        }
        slack_stats = _endpoint_slack_stats(final_timing, constraints.period_ps)
        snapshots[b].append(StageSnapshot(FlowStage.SIGNOFF, {
            "tns_ps": final_timing.tns_ps,
            "wns_ps": final_timing.wns_ps,
            "power_mw_raw": power.total_mw,
            "dynamic_mw_raw": power.dynamic_mw,
            "leakage_mw_raw": power.leakage_mw,
            "leakage_fraction": power.leakage_fraction,
            "sequential_fraction": power.sequential_fraction,
            "clock_mw_raw": power.clock_mw,
            "drc_count": float(drcs),
            "global_skew_ps": final_skew.global_skew_ps,
            "harmful_skew_paths": float(final_skew.harmful_skew_paths),
            "weak_cell_pct": final_timing.weak_cell_pct,
            "critical_path_stages": float(len(final_timing.critical_path)),
            "wire_delay_share":
                _wire_delay_share(lane, final_timing.critical_path),
            "slack_spread_ps": slack_stats["spread"],
            "near_critical_ratio": slack_stats["near_critical"],
            "recovery_headroom": slack_stats["headroom"],
            "endpoint_count": float(final_timing.endpoint_count),
            "cell_count": float(cell_count),
            "area_um2_raw": area,
            "runtime_proxy": runtime,
        }))
        validate_qor(qor, design=profile.name)
        out.append(FlowResult(
            design=profile.name,
            qor=qor,
            snapshots=snapshots[b],
            timing=final_timing,
            power=power,
            skew=final_skew,
        ))
    return out


# ----------------------------------------------------------------------
# Snapshot helpers on lane arrays: each mirrors its ``flow.runner``
# counterpart on the scalar engine's netlist, value for value.
# ----------------------------------------------------------------------
def _mean_positive(setup: np.ndarray) -> float:
    """``runner._mean_positive_slack`` of an endpoint setup-slack vector."""
    positive = setup[setup > 0]
    return float(np.mean(positive)) if positive.size else 0.0


def _critical_nets(lane: LaneState, timing: LaneTiming) -> np.ndarray:
    """``runner._critical_net_names`` as data-net indices: the output nets
    of the traced critical path, then of the (at most 200) most negative
    slack cells in stable slack order, first occurrence kept."""
    d = lane.design
    path = np.array([d.index[name] for name in timing.critical_path],
                    dtype=np.int64)
    candidates = np.flatnonzero(timing.finite)
    slack = timing.cell_slack
    ranked = candidates[np.argsort(slack[candidates], kind="stable")[:200]]
    ranked = ranked[slack[ranked] < 0]
    nets = d.out_net[np.concatenate([path, ranked])]
    nets = nets[nets < d.N]  # cells that drive no net
    _, first = np.unique(nets, return_index=True)
    return nets[np.sort(first)]


def _wire_delay_share(lane: LaneState, critical_path: List[str]) -> float:
    """``runner._wire_delay_share``: wire fraction of the worst path's delay,
    both terms left folds along the path."""
    if not critical_path:
        return 0.0
    d = lane.design
    cells = np.array([d.index[name] for name in critical_path], dtype=np.int64)
    wires = lane.wire_delay[d.out_net[cells]]  # pad slot: no net, 0.0
    gates = lane.intrinsic[cells] + lane.drive_res[cells] * lane.loads()[cells]
    wire = 0.0
    gate = 0.0
    for wire_ps, gate_ps in zip(wires.tolist(), gates.tolist()):
        wire += wire_ps
        gate += gate_ps
    total = wire + gate
    return wire / total if total > 0 else 0.0
