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

Both engines build their stage snapshots, signoff QoR dict and
:class:`~repro.flow.result.FlowResult` through the same builders in
:mod:`repro.flow.runner` (``_placement_snapshot`` through
``_signoff_result``); they differ only in the stage algorithms and in the
netlist form the builders' arguments are read from.  The scalar
``run_flow`` remains the bit-exactness reference, reachable from a session
as ``flow_fn=run_flow``: the equivalence suite asserts bitwise identity
against it, and the committed golden pins (``tests/golden/flow_pins.json``)
fix the builders' key order (``list(got) == list(want)``) and values
(rel 1e-9).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cts.batch import synthesize_clock_tree_batch
from repro.flow.batch_opt import optimize_batch
from repro.flow.parameters import FlowParameters
from repro.flow.result import FlowResult, StageSnapshot
from repro.flow.runner import (
    _cts_snapshot,
    _optimization_snapshot,
    _placement_snapshot,
    _routing_snapshot,
    _signoff_result,
    design_template,
    fresh_netlists,
)
from repro.netlist.compiled import LaneState
from repro.netlist.profiles import DesignProfile, get_profile
from repro.placement.batch import place_batch
from repro.power.batch import analyze_power_batch
from repro.routing.batch import global_route_batch
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
        snapshots[b].append(_placement_snapshot(
            placements[b], pre_routes[b], _mean_positive(pre_routes[b].setup),
            template.placement_stats, constraints.period_ps,
        ))

    # ---- Stage 2: clock-tree synthesis --------------------------------
    trees = synthesize_clock_tree_batch(
        design, lanes, [p.cts for p in params_list], seed=seed
    )
    post_cts_list = run_sta_batch(design, lanes, constraints, trees, scales)
    for b in range(B):
        snapshots[b].append(_cts_snapshot(trees[b], post_cts_list[b]))

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
        snapshots[b].append(_routing_snapshot(routings[b], post_routes[b]))

    # ---- Stage 4: optimization -----------------------------------------
    # Starts from the post-route STA: nothing ran since.  A lane that hold
    # fixing may splice gets one pristine netlist (and may be rebound).
    opt_results = optimize_batch(
        lanes, constraints, trees,
        [p.opt for p in params_list], [p.tradeoff for p in params_list],
        post_routes, lambda: fresh_netlists(profile, seed, 1)[0],
    )
    for b in range(B):
        snapshots[b].append(_optimization_snapshot(opt_results[b]))

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

    return [
        _signoff_result(
            profile, params_list[b], snapshots[b], placements[b], trees[b],
            routings[b], opt_results[b], powers[b], lanes[b].design.cell_count,
            lanes[b].total_area(),
            _wire_delay_share(lanes[b], opt_results[b].report.critical_path),
            constraints.period_ps,
        )
        for b in range(B)
    ]


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
