"""Stacked congestion-driven global routing over N lanes of one design.

The demand build uses an order-preserving rectangle scatter: every net's
bounding-box bins are expanded to flat ``(row, col)`` pairs in net order and
accumulated with ``np.add.at``, which applies updates sequentially in index
order — each bin therefore receives its contributions in exactly the net
order of the scalar ``_demand_map`` loop, bit for bit.  The overflow
diffusion loop runs stacked ``(B, bins_y, bins_x)`` with per-lane iteration
budgets and break conditions handled by masking lanes out of the stack (a
converged lane is frozen, not padded).  Detour charging and layer promotion
update the lane's wire arrays with the scalar helpers' expressions: the
per-net sub-view ``.mean()`` of the detour map, then the same length, cap
and delay updates (``x ** 2`` kept as written) on the charged nets, and
the 0.55 delay factor on the promoted ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.netlist.compiled import CompiledDesign, LaneState
from repro.placement.congestion import congestion_summary
from repro.placement.grid import PlacementGrid
from repro.routing.groute import RouteParams, RoutingResult, _supply_per_bin


def _expand_rects(r0, r1, c0, c1):
    """Flatten per-net bin rectangles to (net_of, rows, cols) in net order."""
    heights = r1 - r0 + 1
    widths = c1 - c0 + 1
    counts = heights * widths
    total = int(counts.sum())
    net_of = np.repeat(np.arange(len(r0)), counts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    within = np.arange(total) - starts[net_of]
    rows = r0[net_of] + within // widths[net_of]
    cols = c0[net_of] + within % widths[net_of]
    return net_of, rows, cols


def _rect_bins(grid: PlacementGrid, boxes: np.ndarray):
    bw, bh = grid.bin_width_um, grid.bin_height_um
    c0 = np.clip(boxes[:, 0] / bw, 0, grid.bins_x - 1).astype(np.int64)
    c1 = np.clip(boxes[:, 2] / bw, 0, grid.bins_x - 1).astype(np.int64)
    r0 = np.clip(boxes[:, 1] / bh, 0, grid.bins_y - 1).astype(np.int64)
    r1 = np.clip(boxes[:, 3] / bh, 0, grid.bins_y - 1).astype(np.int64)
    return r0, r1, c0, c1


def _demand_map_vec(
    grid: PlacementGrid, boxes: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Bitwise-identical vectorization of ``groute._demand_map``."""
    demand = np.zeros((grid.bins_y, grid.bins_x))
    if len(boxes) == 0:
        return demand
    r0, r1, c0, c1 = _rect_bins(grid, boxes)
    span = (r1 - r0 + 1) * (c1 - c0 + 1)
    value = lengths / span
    net_of, rows, cols = _expand_rects(r0, r1, c0, c1)
    np.add.at(demand, (rows, cols), value[net_of])
    return demand


def _charge_detours_fast(
    lane: LaneState, grid, boxes, lengths, nets, detour_map, demand
) -> None:
    """``groute._charge_detours`` on the lane's wire arrays.

    The per-net sub-view ``.mean()`` stays exactly as the scalar helper
    computes it (pairwise summation over the same view), and the charged
    nets' length, cap and delay follow its expressions, so the parasitics
    are bit-identical; the clip/int bin arithmetic and the array writes are
    batched.
    """
    if detour_map.sum() <= 0:
        return
    node = lane.design.library.node
    safe_demand = np.maximum(demand, 1e-9)
    per_unit = detour_map / safe_demand
    if len(boxes) == 0:
        return
    r0, r1, c0, c1 = _rect_bins(grid, boxes)
    span = (r1 - r0 + 1) * (c1 - c0 + 1)
    charged: List[int] = []
    extras: List[float] = []
    for i, (top, bottom, left, right) in enumerate(zip(
        r0.tolist(), r1.tolist(), c0.tolist(), c1.tolist()
    )):
        extra = float(
            per_unit[top:bottom + 1, left:right + 1].mean()
            * lengths[i] / span[i]
        )
        if extra > 0:
            charged.append(i)
            extras.append(extra)
    if not charged:
        return
    index = nets[charged]
    length = lane.wire_length[index] + np.array(extras)
    delay_k = 0.5 * node.wire_res_ohm_per_um * node.wire_cap_ff_per_um
    lane.wire_length[index] = length
    lane.wire_cap[index] = length * node.wire_cap_ff_per_um
    lane.wire_delay[index] = [
        delay_k * value ** 2 / 1000.0 for value in length.tolist()
    ]


_SHIFTS = ((-1, 0), (1, 0), (0, -1), (0, 1))


def _diffuse_stacked(
    demand: np.ndarray, capacity: np.ndarray, move_fraction: np.ndarray
) -> np.ndarray:
    """Stacked ``groute._diffuse``: (k, bins_y, bins_x) lanes in one pass."""
    k, bins_y, bins_x = demand.shape
    overflow = np.maximum(0.0, demand - capacity)
    slack = np.maximum(0.0, capacity - demand)
    neighbor_slack = np.zeros((4, k, bins_y, bins_x))
    windows = []
    for idx, (dy, dx) in enumerate(_SHIFTS):
        ys = slice(max(0, dy), bins_y + min(0, dy))
        xs = slice(max(0, dx), bins_x + min(0, dx))
        ys_src = slice(max(0, -dy), bins_y + min(0, -dy))
        xs_src = slice(max(0, -dx), bins_x + min(0, -dx))
        neighbor_slack[idx][:, ys_src, xs_src] = slack[:, ys, xs]
        windows.append((ys, xs, ys_src, xs_src))
    total_slack = neighbor_slack.sum(axis=0)
    movable = np.minimum(overflow * move_fraction, total_slack)
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(total_slack > 0, movable / total_slack, 0.0)
    demand -= movable
    for idx in range(4):
        flow = neighbor_slack[idx] * share
        ys, xs, ys_src, xs_src = windows[idx]
        demand[:, ys, xs] += flow[:, ys_src, xs_src]
    return movable


def global_route_batch(
    design: CompiledDesign,
    lanes: Sequence[LaneState],
    grid: PlacementGrid,
    params_list: Sequence[RouteParams],
    critical_nets_list: Sequence[np.ndarray],
    seed: int = 0,
    stats: Optional[Dict[str, int]] = None,
) -> List[RoutingResult]:
    """Route every lane on ``grid``; updates its wire arrays in place.

    ``critical_nets_list[b]`` holds lane ``b``'s critical data nets, worst
    first, without repeats (``batch_runner._critical_nets``).
    """
    B = len(lanes)
    base_supply = _supply_per_bin(design, grid)
    blockage_field = np.maximum(0.05, 1.0 - 0.8 * grid.blockage_fraction)
    pitch = 0.5 * (grid.bin_width_um + grid.bin_height_um)

    promoted: List[np.ndarray] = []
    geometries = []
    demand = np.empty((B, grid.bins_y, grid.bins_x))
    capacity = np.empty((B, grid.bins_y, grid.bins_x))
    for b, lane in enumerate(lanes):
        params = params_list[b]
        critical_nets = critical_nets_list[b]
        supply = base_supply
        lane_promoted = critical_nets[:0]
        if len(critical_nets) and params.layer_promotion > 0.0:
            budget = max(1, int(len(critical_nets) * min(0.3, params.layer_promotion)))
            lane_promoted = critical_nets[:budget]
            supply *= 1.0 - 0.08 * min(0.3, params.layer_promotion) * 10.0
        promoted.append(lane_promoted)

        # Candidate geometry: the compiled pin tables are static; only the
        # per-lane "wire_length_um <= 0" exclusion is dynamic.
        pos = lane.position
        wl = lane.wire_length
        xs = pos[design.route_pin, 0]
        ys = pos[design.route_pin, 1]
        seg = design.route_seg
        if seg.size:
            xmin = np.minimum.reduceat(xs, seg)
            xmax = np.maximum.reduceat(xs, seg)
            ymin = np.minimum.reduceat(ys, seg)
            ymax = np.maximum.reduceat(ys, seg)
            cand_wl = wl[design.route_cand_net]
            keep = cand_wl > 0
            boxes = np.column_stack([xmin, ymin, xmax, ymax])[keep]
            lengths = cand_wl[keep]
            nets = design.route_cand_net[keep]
        else:
            boxes = np.zeros((0, 4))
            lengths = np.zeros(0)
            nets = np.zeros(0, dtype=np.int64)
        geometries.append((boxes, lengths, nets))
        demand[b] = _demand_map_vec(grid, boxes, lengths)
        capacity[b] = supply * params.congestion_threshold * blockage_field

    initial_overflow = [
        float(np.maximum(0.0, demand[b] - capacity[b]).sum()) for b in range(B)
    ]
    detour_map = np.zeros_like(demand)
    iters = [max(2, int(round(8 * p.effort))) for p in params_list]
    move_fraction = np.array(
        [float(np.clip(0.45 / p.detour_cost, 0.12, 0.85)) for p in params_list]
    )
    broken = [False] * B
    for it in range(max(iters)):
        act = [
            b for b in range(B) if it < iters[b] and not broken[b]
        ]
        for b in list(act):
            overflow = demand[b] - capacity[b]
            if overflow.max() <= 0:
                broken[b] = True
                act.remove(b)
        if stats is not None:
            stats["lane_steps"] = stats.get("lane_steps", 0) + len(act)
            stats["frozen_steps"] = stats.get("frozen_steps", 0) + (B - len(act))
        if not act:
            continue
        sub_demand = demand[act]
        moved = _diffuse_stacked(
            sub_demand, capacity[act], move_fraction[act][:, None, None]
        )
        demand[act] = sub_demand
        detour_cost = np.array(
            [params_list[b].detour_cost for b in act]
        )[:, None, None]
        detour_map[act] += moved * pitch * 0.3 * detour_cost

    results: List[RoutingResult] = []
    for b, lane in enumerate(lanes):
        residual = float(np.maximum(0.0, demand[b] - capacity[b]).sum())
        total_detour = float(detour_map[b].sum())
        boxes, lengths, nets = geometries[b]
        _charge_detours_fast(
            lane, grid, boxes, lengths, nets, detour_map[b], demand[b]
        )
        # groute._apply_layer_promotion: upper layers cut wire delay 45%.
        lane.wire_delay[promoted[b]] *= 0.55
        routed_total = sum(lane.wire_length[: design.N].tolist())
        congestion_ratio = demand[b] / np.maximum(1e-9, capacity[b])
        results.append(RoutingResult(
            overflow_total=residual,
            overflow_initial=initial_overflow[b],
            detour_wirelength_um=total_detour,
            routed_wirelength_um=float(routed_total),
            congestion=congestion_summary(congestion_ratio),
            promoted_nets=len(promoted[b]),
            iterations_run=iters[b],
        ))
    return results
