"""Flow runner: execute placement -> CTS -> routing -> opt -> signoff.

This is the stand-in for the commercial P&R tool the paper drives.  Given a
design profile and a :class:`FlowParameters` bundle, it runs every stage on a
freshly instantiated netlist, records a trajectory snapshot per stage (the
raw material for design insights), and returns a :class:`FlowResult` whose
``qor`` dict carries the signoff metrics.

Reported power / TNS are scaled by the profile's ``reported_scale`` so the
17 designs span the orders of magnitude the paper's Table IV shows.
"""

from __future__ import annotations

import math
import pickle
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional, Union

from repro.errors import CorruptQoR

from repro.cts.skew import analyze_skew
from repro.cts.tree import synthesize_clock_tree
from repro.flow.opt import optimize
from repro.flow.parameters import FlowParameters
from repro.flow.result import FlowResult, StageSnapshot
from repro.flow.stages import FlowStage
from repro.netlist.compiled import DesignTemplate
from repro.netlist.generator import generate_netlist
from repro.netlist.netlist import Netlist
from repro.netlist.profiles import DesignProfile, get_profile
from repro.placement.placer import place
from repro.power.analysis import analyze_power
from repro.routing.drc import estimate_drcs
from repro.routing.groute import global_route
from repro.timing.constraints import default_constraints
from repro.timing.sta import run_sta

# LRU cache of pristine netlists keyed by (profile name, seed): generation is
# the most expensive step and every recipe evaluation restarts from the same
# RTL.  Bounded so long online runs sweeping many designs don't grow memory
# without limit; least-recently-used entries are evicted past the cap.
_NETLIST_CACHE: "OrderedDict[tuple, bytes]" = OrderedDict()
_NETLIST_CACHE_LIMIT = 32
# The stacked engine's read-only template per cached (profile name, seed):
# built on first use from the pristine bytes, evicted and cleared with them.
_TEMPLATE_CACHE: Dict[tuple, DesignTemplate] = {}


def clear_netlist_cache() -> None:
    """Drop every cached pristine netlist and template (frees memory
    immediately)."""
    _NETLIST_CACHE.clear()
    _TEMPLATE_CACHE.clear()


def _evict_over_limit() -> None:
    while len(_NETLIST_CACHE) > _NETLIST_CACHE_LIMIT:
        key, _ = _NETLIST_CACHE.popitem(last=False)
        _TEMPLATE_CACHE.pop(key, None)


def set_netlist_cache_limit(limit: int) -> int:
    """Resize the netlist LRU cache, evicting oldest entries as needed.

    Returns the previous limit so callers can restore it.
    """
    global _NETLIST_CACHE_LIMIT
    if limit < 1:
        raise ValueError(f"netlist cache limit must be >= 1, got {limit}")
    previous = _NETLIST_CACHE_LIMIT
    _NETLIST_CACHE_LIMIT = int(limit)
    _evict_over_limit()
    return previous


def netlist_cache_info() -> Dict[str, int]:
    """Current cache occupancy: ``{"size": ..., "limit": ...}``."""
    return {"size": len(_NETLIST_CACHE), "limit": _NETLIST_CACHE_LIMIT}


@contextmanager
def netlist_cache_limit(limit: int):
    """Temporarily resize the netlist LRU cache, restoring the previous
    limit on exit — including when the body raises, which bare
    ``set_netlist_cache_limit`` callers get wrong.

    Entries admitted above the old cap are evicted (oldest first) on
    restore, exactly as a direct shrink would.
    """
    previous = set_netlist_cache_limit(limit)
    try:
        yield
    finally:
        set_netlist_cache_limit(previous)


def _fresh_netlist(profile: DesignProfile, seed: int) -> Netlist:
    return fresh_netlists(profile, seed, 1)[0]


def fresh_netlists(
    design: Union[str, DesignProfile], seed: int, count: int
) -> List[Netlist]:
    """``count`` independent pristine netlists for one (profile, seed).

    A batched evaluation needs one private netlist per lane; this costs one
    cache lookup/admission and then unpickles each copy from the same bytes,
    instead of ``count`` separate generate-or-fetch round trips.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    profile = get_profile(design) if isinstance(design, str) else design
    cached = _pristine_bytes(profile, seed)
    return [pickle.loads(cached) for _ in range(count)]


def _pristine_bytes(profile: DesignProfile, seed: int) -> bytes:
    """The cached pickle of one pristine netlist (admits or touches it)."""
    key = (profile.name, seed)
    cached = _NETLIST_CACHE.get(key)
    if cached is None:
        cached = pickle.dumps(
            generate_netlist(profile, seed=seed), protocol=pickle.HIGHEST_PROTOCOL
        )
        _NETLIST_CACHE[key] = cached
        _evict_over_limit()
    else:
        _NETLIST_CACHE.move_to_end(key)
    return cached


def design_template(
    design: Union[str, DesignProfile], seed: int
) -> DesignTemplate:
    """The stacked engine's cached read-only template for one (profile,
    seed): compiled design, constraints, topology-only placement snapshot
    values and pristine lane arrays.

    It lives next to the pristine netlist bytes, shares their LRU slot
    (touching one touches both) and goes when they are evicted or
    cleared.
    """
    profile = get_profile(design) if isinstance(design, str) else design
    key = (profile.name, seed)
    cached = _pristine_bytes(profile, seed)
    template = _TEMPLATE_CACHE.get(key)
    if template is None:
        netlist = pickle.loads(cached)
        template = DesignTemplate(netlist, _placement_statistics(netlist))
        _TEMPLATE_CACHE[key] = template
    return template


def _placement_statistics(netlist: Netlist) -> Dict[str, float]:
    """The PLACEMENT snapshot values that depend on topology only (and on
    pristine sizing, which placement never changes), in snapshot order."""
    return {
        "cell_count": float(netlist.cell_count),
        "net_count": float(netlist.net_count),
        "high_fanout_net_fraction": _high_fanout_fraction(netlist),
        "area_um2_raw": netlist.total_cell_area_um2(),
        "utilization": netlist.utilization(),
        "register_ratio":
            len(netlist.sequential_cells()) / max(1, netlist.cell_count),
        "avg_fanout": _avg_fanout(netlist),
        "macro_blockage_fraction": _macro_fraction(netlist),
    }


# The metrics every signoff QoR dict must carry, finite, for downstream
# normalization/scoring to be meaningful.
REQUIRED_QOR_KEYS = (
    "tns_ns", "wns_ns", "hold_tns_ns", "power_mw", "leakage_mw",
    "area_um2", "wirelength_um", "drc_count", "hold_fix_count",
    "runtime_proxy",
)


def validate_qor(qor: Dict[str, float], design: str = "?",
                 required: Optional[tuple] = REQUIRED_QOR_KEYS) -> None:
    """Reject NaN/inf/missing metrics with a typed :class:`CorruptQoR`.

    Applied at the ``run_flow`` boundary (and again by the executor on
    whatever the tool handed back) so corrupt numbers can never silently
    poison alignment scores.
    """
    bad: List[str] = []
    for key, value in qor.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append(f"{key}={value!r}")
    if bad:
        raise CorruptQoR(
            f"flow run on {design} produced non-finite QoR metrics: "
            + ", ".join(sorted(bad))
        )
    if required:
        missing = [key for key in required if key not in qor]
        if missing:
            raise CorruptQoR(
                f"flow run on {design} is missing QoR metrics: "
                + ", ".join(missing)
            )


def run_flow(
    design: Union[str, DesignProfile],
    params: FlowParameters = FlowParameters(),
    seed: int = 0,
) -> FlowResult:
    """Run one full P&R iteration of ``design`` under ``params``.

    Deterministic: the same (design, params, seed) triple always yields the
    same result, so recipe effects are the only source of QoR differences
    within a design.
    """
    profile = get_profile(design) if isinstance(design, str) else design
    netlist = _fresh_netlist(profile, seed)
    constraints = default_constraints(netlist)
    delay_scale = params.opt.vt_swap_bias ** -0.25
    snapshots = []

    # ---- Stage 1: placement -------------------------------------------
    placement = place(netlist, params.placer, seed=seed)
    pre_route = run_sta(netlist, constraints, None, delay_scale=delay_scale)
    snapshots.append(_placement_snapshot(
        placement, pre_route, _mean_positive_slack(pre_route),
        _placement_statistics(netlist), constraints.period_ps,
    ))

    # ---- Stage 2: clock-tree synthesis --------------------------------
    tree = synthesize_clock_tree(netlist, params.cts, seed=seed)
    post_cts = run_sta(netlist, constraints, tree, delay_scale=delay_scale)
    snapshots.append(_cts_snapshot(tree, post_cts))

    # ---- Stage 3: global routing ---------------------------------------
    critical_nets = _critical_net_names(netlist, post_cts)
    routing = global_route(netlist, placement.grid, params.route,
                           critical_nets=critical_nets, seed=seed)
    post_route = run_sta(netlist, constraints, tree, delay_scale=delay_scale)
    snapshots.append(_routing_snapshot(routing, post_route))

    # ---- Stage 4: optimization -----------------------------------------
    opt_result = optimize(netlist, constraints, tree, params.opt, params.tradeoff)
    snapshots.append(_optimization_snapshot(opt_result))

    # ---- Stage 5: signoff ----------------------------------------------
    leakage_bias = profile.leakage_bias * params.opt.vt_swap_bias
    power = analyze_power(
        netlist, tree,
        leakage_bias=leakage_bias,
        clock_gating_efficiency=params.opt.clock_gating_efficiency,
    )
    return _signoff_result(
        profile, params, snapshots, placement, tree, routing, opt_result,
        power, netlist.cell_count, netlist.total_cell_area_um2(),
        _wire_delay_share(netlist, opt_result.report), constraints.period_ps,
    )


# ----------------------------------------------------------------------
# Result builders, shared with the stacked engine (``batch_runner``): each
# takes one stage's results and builds that stage's snapshot, so both
# engines emit the same keys in the same order from the same expressions.
# ----------------------------------------------------------------------
def _placement_snapshot(placement, pre_route, mean_positive_slack_ps: float,
                        statistics: Dict[str, float],
                        period_ps: float) -> StageSnapshot:
    """The PLACEMENT snapshot of a placement and its pre-route STA, with
    the topology-only ``statistics`` of ``_placement_statistics``."""
    return StageSnapshot(FlowStage.PLACEMENT, {
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
        "mean_positive_slack_ps": mean_positive_slack_ps,
        **statistics,
        "period_ps": period_ps,
    })


def _cts_snapshot(tree, post_cts) -> StageSnapshot:
    """The CTS snapshot of a clock tree, before optimization retunes it,
    and its post-CTS STA."""
    return StageSnapshot(FlowStage.CTS, {
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
    })


def _routing_snapshot(routing, post_route) -> StageSnapshot:
    """The ROUTING snapshot of a global route and its post-route STA."""
    return StageSnapshot(FlowStage.ROUTING, {
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
    })


def _optimization_snapshot(opt_result) -> StageSnapshot:
    """The OPTIMIZATION snapshot of an optimization result."""
    final_timing = opt_result.report
    return StageSnapshot(FlowStage.OPTIMIZATION, {
        "upsized": float(opt_result.upsized),
        "downsized": float(opt_result.downsized),
        "hold_fix_count": float(opt_result.hold_fix_count),
        "useful_skew_endpoints": float(opt_result.useful_skew_endpoints),
        "passes_run": float(opt_result.passes_run),
        "pre_opt_tns_ps": opt_result.pre_tns_ps,
        "post_opt_tns_ps": final_timing.tns_ps,
        "post_opt_wns_ps": final_timing.wns_ps,
        "tns_improvement_ps": opt_result.pre_tns_ps - final_timing.tns_ps,
    })


def _signoff_result(profile: DesignProfile, params: FlowParameters,
                    snapshots: List[StageSnapshot], placement, tree, routing,
                    opt_result, power, cell_count: int, area_um2: float,
                    wire_delay_share: float, period_ps: float) -> FlowResult:
    """Close one run at signoff: skew and DRC estimates, the scaled QoR
    dict, the SIGNOFF snapshot (appended to ``snapshots``), the QoR check
    and the :class:`FlowResult`.

    ``cell_count``, ``area_um2`` and ``wire_delay_share`` describe the
    final netlist, which each engine holds in its own form.

    Raises:
        CorruptQoR: If a QoR metric is not finite (``validate_qor``).
    """
    final_timing = opt_result.report
    final_skew = analyze_skew(tree, final_timing.critical_launch_capture)
    drcs = estimate_drcs(routing, placement.peak_density, cell_count)
    runtime = _runtime_proxy(params)
    scale = profile.reported_scale
    qor = {
        "tns_ns": final_timing.tns_ps * 1e-3 * scale ** 0.5,
        "wns_ns": final_timing.wns_ps * 1e-3,
        "hold_tns_ns": final_timing.hold_tns_ps * 1e-3 * scale ** 0.5,
        "power_mw": power.total_mw * scale,
        "leakage_mw": power.leakage_mw * scale,
        "area_um2": area_um2 * scale,
        "wirelength_um": routing.routed_wirelength_um * scale,
        "drc_count": float(drcs),
        "hold_fix_count": float(opt_result.hold_fix_count),
        "runtime_proxy": runtime,
    }
    slack_stats = _endpoint_slack_stats(final_timing, period_ps)
    snapshots.append(StageSnapshot(FlowStage.SIGNOFF, {
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
        "wire_delay_share": wire_delay_share,
        "slack_spread_ps": slack_stats["spread"],
        "near_critical_ratio": slack_stats["near_critical"],
        "recovery_headroom": slack_stats["headroom"],
        "endpoint_count": float(final_timing.endpoint_count),
        "cell_count": float(cell_count),
        "area_um2_raw": area_um2,
        "runtime_proxy": runtime,
    }))
    validate_qor(qor, design=profile.name)
    return FlowResult(
        design=profile.name,
        qor=qor,
        snapshots=snapshots,
        timing=final_timing,
        power=power,
        skew=final_skew,
    )


def _mean_positive_slack(report) -> float:
    import numpy as np

    values = [s for s in report.endpoint_slack_ps.values() if s > 0]
    return float(np.mean(values)) if values else 0.0


def _high_fanout_fraction(netlist: Netlist, threshold: int = 10) -> float:
    nets = [n for n in netlist.nets.values() if not n.is_clock]
    if not nets:
        return 0.0
    return sum(1 for n in nets if n.fanout > threshold) / len(nets)


def _avg_fanout(netlist: Netlist) -> float:
    nets = [n for n in netlist.nets.values() if not n.is_clock]
    if not nets:
        return 0.0
    return sum(n.fanout for n in nets) / len(nets)


def _macro_fraction(netlist: Netlist) -> float:
    die = netlist.die_width_um * netlist.die_height_um
    blocked = sum(w * h for (_, _, w, h) in netlist.blockages)
    return min(1.0, blocked / die) if die > 0 else 0.0


def _wire_delay_share(netlist: Netlist, report) -> float:
    """Wire fraction of the worst path's delay (0..1)."""
    if not report.critical_path:
        return 0.0
    wire = 0.0
    gate = 0.0
    for name in report.critical_path:
        cell = netlist.cells.get(name)
        if cell is None:
            continue
        net = netlist.net_of_output(name)
        if net is not None:
            wire += net.wire_delay_ps
        from repro.timing.graph import output_load_ff

        gate += cell.cell_type.delay_ps(output_load_ff(netlist, name))
    total = wire + gate
    return wire / total if total > 0 else 0.0


def _endpoint_slack_stats(report, period_ps: float) -> dict:
    import numpy as np

    slacks = np.array(list(report.endpoint_slack_ps.values()))
    if slacks.size == 0:
        return {"spread": 0.0, "near_critical": 0.0, "headroom": 0.0}
    wns = slacks.min()
    near = float((slacks <= wns + 0.10 * period_ps).mean())
    headroom = float((slacks > 0.20 * period_ps).mean())
    return {
        "spread": float(slacks.std()),
        "near_critical": near,
        "headroom": headroom,
    }


def _critical_net_names(netlist: Netlist, report) -> list:
    """Output nets of the cells on traced critical paths, worst first."""
    names = []
    for cell_name in report.critical_path:
        cell = netlist.cells.get(cell_name)
        if cell is not None and cell.output_net:
            names.append(cell.output_net)
    # Extend with nets of most-negative-slack cells.
    ranked = sorted(report.cell_slack_ps.items(), key=lambda kv: kv[1])
    for cell_name, slack in ranked[:200]:
        if slack >= 0:
            break
        cell = netlist.cells.get(cell_name)
        if cell is not None and cell.output_net:
            names.append(cell.output_net)
    seen = set()
    unique = []
    for name in names:
        if name not in seen:
            seen.add(name)
            unique.append(name)
    return unique


def _runtime_proxy(params: FlowParameters) -> float:
    """Relative wall-clock cost of the chosen efforts (1.0 = default flow)."""
    return (
        0.35 * params.placer.effort
        + 0.15 * params.route.effort
        + 0.10 * params.cts.balance_effort
        + 0.30 * (params.opt.setup_passes / 3.0)
        + 0.10 * params.opt.hold_effort
    )
