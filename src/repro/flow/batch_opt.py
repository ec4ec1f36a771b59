"""Batched post-route optimization over N lanes of compiled designs.

The scalar optimizer interleaves STA with in-place netlist moves; the batch
version runs the moves on lane arrays and batches the STA calls, which
dominate runtime.  A setup-sizing or power-recovery pass is one sort of the
lane's cell-slack array into the scalar ``(slack, name)`` candidate order
(ties broken by name) and one ladder lookup in the design's variant table.

Lanes start out sharing one :class:`CompiledDesign`.  Hold fixing is the
only move that needs objects: a lane with a hold-violating register
endpoint is written into one freshly unpickled netlist and the scalar
``_fix_hold`` runs on it.  If it splices buffers, the lane's topology has
*diverged*: it is recompiled over its own design and continues as an
array lane, and later STA calls group lanes by design identity — diverged
lanes run as width-1 stacks of the same vector kernel.

Control flow mirrors ``optimize`` per lane bit for bit: per-lane pass
budgets, the ``moved == 0 or wns >= 0`` break, and the re-STA-only-if-changed
rules for hold fixing and power recovery.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.cts.tree import ClockTree
from repro.flow.opt import OptResult, _apply_useful_skew, _fix_hold
from repro.flow.parameters import OptParams, TradeoffWeights
from repro.netlist.compiled import CompiledDesign, LaneState
from repro.netlist.netlist import Netlist
from repro.timing.constraints import TimingConstraints
from repro.timing.vector_sta import LaneTiming, run_sta_batch


def _sta_grouped(
    lanes: Sequence[LaneState],
    constraints: TimingConstraints,
    trees: Sequence[ClockTree],
    scales: Sequence[float],
    indices: Sequence[int],
) -> Dict[int, LaneTiming]:
    """Run vector STA on ``indices``, grouping lanes by shared design."""
    groups: Dict[int, List[int]] = {}
    for b in indices:
        groups.setdefault(id(lanes[b].design), []).append(b)
    out: Dict[int, LaneTiming] = {}
    for members in groups.values():
        timings = run_sta_batch(
            lanes[members[0]].design,
            [lanes[b] for b in members],
            constraints,
            [trees[b] for b in members],
            [scales[b] for b in members],
        )
        for b, timing in zip(members, timings):
            out[b] = timing
    return out


def _ranked(design: CompiledDesign, slack: np.ndarray,
            cells: np.ndarray) -> np.ndarray:
    """``cells`` in ascending ``(slack, name)`` order."""
    return cells[np.lexsort((design.name_rank[cells], slack[cells]))]


def _resize(lane: LaneState, chosen: np.ndarray, ladder: np.ndarray) -> int:
    """Step each chosen combinational cell one rung along ``ladder``
    (``design.table.up`` / ``.down``); returns the move count."""
    chosen = chosen[chosen >= lane.design.S]  # sequential cells never resize
    target = ladder[lane.variant[chosen]]
    movable = target >= 0
    lane.variant[chosen[movable]] = target[movable]
    return int(movable.sum())


def _setup_sizing_pass(
    lane: LaneState,
    timing: LaneTiming,
    params: OptParams,
    tradeoff: TradeoffWeights,
    throttle: float,
) -> int:
    """``opt._setup_sizing_pass`` on lane arrays; returns move count."""
    candidates = np.flatnonzero(timing.finite & (timing.cell_slack < 0))
    if not candidates.size:
        return 0
    timing_pressure = min(2.0, tradeoff.timing / max(tradeoff.power, 0.25))
    quota = int(
        np.ceil(len(candidates) * params.upsize_fraction * throttle
                * min(1.5, 0.5 + 0.5 * timing_pressure))
    )
    d = lane.design
    order = _ranked(d, timing.cell_slack, candidates)
    return _resize(lane, order[:quota], d.table.up)


def _power_recovery_pass(
    lane: LaneState,
    timing: LaneTiming,
    constraints: TimingConstraints,
    params: OptParams,
    tradeoff: TradeoffWeights,
) -> int:
    """``opt._power_recovery_pass`` on lane arrays; returns move count."""
    power_pressure = min(2.0, tradeoff.power / max(tradeoff.timing, 0.25))
    margin = (
        params.downsize_slack_margin * constraints.period_ps
        / max(0.5, power_pressure)
    )
    candidates = np.flatnonzero(timing.finite & (timing.cell_slack > margin))
    if not candidates.size:
        return 0
    quota = int(np.ceil(
        len(candidates) * 0.3 * min(2.0, params.leakage_recovery) * power_pressure
    ))
    d = lane.design
    # (slack, name) pairs are distinct, so descending order is the exact
    # reverse of ascending order.
    order = _ranked(d, timing.cell_slack, candidates)[::-1]
    return _resize(lane, order[:quota], d.table.down)


def optimize_batch(
    lanes: List[LaneState],
    constraints: TimingConstraints,
    trees: Sequence[ClockTree],
    params_list: Sequence[OptParams],
    tradeoffs: Sequence[TradeoffWeights],
    timings: Sequence[LaneTiming],
    fresh_netlist: Callable[[], Netlist],
) -> List[OptResult]:
    """Optimize every lane in place; one :class:`OptResult` each.

    ``timings[b]`` is lane ``b``'s STA on the current state (the post-route
    one), so the optimizer starts without re-running it.  ``lanes[b]`` is
    rebound when lane ``b``'s topology diverges; ``fresh_netlist()`` returns
    a pristine netlist of the stack's design for hold fixing.
    """
    B = len(lanes)
    results = [OptResult() for _ in range(B)]
    scales = [p.vt_swap_bias ** -0.25 for p in params_list]

    reports: Dict[int, LaneTiming] = dict(enumerate(timings))
    for b in range(B):
        results[b].pre_wns_ps = reports[b].wns_ps
        results[b].pre_tns_ps = reports[b].tns_ps

    skew_lanes = [b for b in range(B) if params_list[b].useful_skew_gain > 0.0]
    for b in skew_lanes:
        results[b].useful_skew_endpoints = _apply_useful_skew(
            reports[b], trees[b], constraints, params_list[b].useful_skew_gain
        )
    if skew_lanes:
        reports.update(
            _sta_grouped(lanes, constraints, trees, scales, skew_lanes)
        )

    throttles = [
        max(0.2, 1.0 - 0.5 * p.early_hold_weight) for p in params_list
    ]
    pending = [max(0, p.setup_passes) for p in params_list]
    while True:
        active = [b for b in range(B) if pending[b] > 0]
        if not active:
            break
        moved: Dict[int, int] = {}
        for b in active:
            pending[b] -= 1
            results[b].passes_run += 1
            moved[b] = _setup_sizing_pass(
                lanes[b], reports[b], params_list[b], tradeoffs[b], throttles[b],
            )
            results[b].upsized += moved[b]
            if moved[b]:
                lanes[b].refresh_cell_params()
        reports.update(
            _sta_grouped(lanes, constraints, trees, scales, active)
        )
        for b in active:
            results[b].pass_tns_ps.append(reports[b].tns_ps)
            if moved[b] == 0 or reports[b].wns_ps >= 0:
                pending[b] = 0

    diverged: List[int] = []
    for b in range(B):
        if params_list[b].hold_effort <= 0.0:
            continue
        if not (reports[b].register_hold < 0).any():
            continue  # nothing to pad: _fix_hold would insert no buffer
        netlist = fresh_netlist()
        lanes[b].write_to(netlist)
        results[b].hold_fix_count = _fix_hold(
            netlist, reports[b], constraints, params_list[b]
        )
        if results[b].hold_fix_count:
            # Buffer splicing changed the topology: this lane no longer
            # matches the shared compiled arrays, so recompile it.
            lanes[b] = LaneState.from_netlist(CompiledDesign(netlist), netlist)
            diverged.append(b)
    if diverged:
        reports.update(
            _sta_grouped(lanes, constraints, trees, scales, diverged)
        )

    recovered: List[int] = []
    for b in range(B):
        if params_list[b].leakage_recovery > 0.0 and tradeoffs[b].power > 0.0:
            results[b].downsized = _power_recovery_pass(
                lanes[b], reports[b], constraints, params_list[b], tradeoffs[b],
            )
            if results[b].downsized:
                lanes[b].refresh_cell_params()
                recovered.append(b)
    if recovered:
        reports.update(
            _sta_grouped(lanes, constraints, trees, scales, recovered)
        )

    for b in range(B):
        results[b].report = reports[b].report()
    return results
