"""Array-vectorized multi-lane STA over a :class:`CompiledDesign`.

``run_sta_batch`` evaluates N lanes (jobs sharing one compiled topology) in
stacked ``(B, V)`` arrays and returns one :class:`LaneTiming` per lane: the
slacks as arrays, plus name-keyed views that are **bitwise identical** to
the fields of :func:`repro.timing.sta.run_sta`'s report on the same state.
The equivalence rests on three observations:

- Every scalar float expression is mirrored with the same operation order
  (``(intrinsic + R*C) * scale``, ``(((period + capture) - setup) - unc) -
  arr``), so elementwise array ops reproduce the exact bits.
- ``max``/``min`` reductions over the same float values are exact and
  associative, so ``np.maximum.reduceat`` over dst-grouped arc segments
  matches the scalar first-to-last scan *in value*; the scan's tie-break
  (first strict max) only matters for the traced critical paths, which are
  replayed lazily per endpoint in original arc order.
- The backward required-time pass is a pure min-accumulation, order-free,
  so per-level ``np.minimum.at`` sweeps in descending level order reproduce
  the scalar reversed-topological pass (a sink's level strictly exceeds its
  driver's, so each level's required times are final before they propagate).
  Each sweep covers every lane at once through lane-offset flat indices;
  within a lane the updates keep their order, so even the sign of a zero
  tie matches.

Name-keyed dicts and the critical-path trace are built on first read: the
optimizer's intermediate reports need only the arrays, and only the final
report of a flow is materialized as a :class:`TimingReport`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cts.tree import ClockTree
from repro.netlist.compiled import CompiledDesign, LaneState
from repro.timing.constraints import TimingConstraints
from repro.timing.sta import (
    CriticalTrace,
    TimingReport,
    _latency_lookup,
    _slack_stats,
    _trace_critical,
)


class _LazyPredMax:
    """Replays the scalar forward pass's first-strict-max driver choice.

    Only the <= ``trace_paths`` traced chains ever query this, so the scan
    runs over a handful of cells instead of the whole graph.
    """

    def __init__(self, design: CompiledDesign, a_max: list, wire: list):
        self._design = design
        self._a = a_max
        self._w = wire
        self._cache: Dict[str, Optional[str]] = {}

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        if name in self._cache:
            return self._cache[name]
        d = self._design
        i = d.index.get(name)
        result: Optional[str] = None
        if i is not None and i >= d.S:
            best = -np.inf
            for k in range(d.fanin_start[i], d.fanin_end[i]):
                src = d.fanin_src[k]
                arr = self._a[src] + self._w[d.fanin_net[k]]
                if arr > best:
                    best = arr
                    result = d.cell_names[src]
        self._cache[name] = result
        return result


class _LazyWorstDriver:
    """Replays the scalar endpoint ``max(..., key=t[0])`` driver choice."""

    def __init__(self, design: CompiledDesign, a_max: list, wire: list):
        self._design = design
        self._a = a_max
        self._w = wire

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        d = self._design
        j = d.index.get(name)
        if j is None or j >= d.S:
            return default
        best = -np.inf
        result = default
        for k in range(d.ep_off_list[j], d.ep_off_list[j + 1]):
            src = d.ep_src_list[k]
            arr = self._a[src] + self._w[d.ep_net_list[k]]
            if arr > best:
                best = arr
                result = d.cell_names[src]
        return result


class LaneTiming:
    """One lane's STA result.

    Arrays (eager): ``setup`` / ``hold`` endpoint slacks in report order
    (``design.endpoint_keys``: active register endpoints, then primary
    outputs), ``cell_slack`` per canonical cell and ``finite`` (cells with a
    finite required time), plus the summary fields of a
    :class:`TimingReport`.  The name-keyed dicts and the critical-path
    fields are computed on first read, from a snapshot of the lane taken at
    analysis time; :meth:`report` materializes the full report.
    """

    def __init__(
        self,
        design: CompiledDesign,
        setup: np.ndarray,
        hold: np.ndarray,
        cell_slack: np.ndarray,
        finite: np.ndarray,
        a_max: np.ndarray,
        wire: np.ndarray,
        is_weak: np.ndarray,
        tree: Optional[ClockTree],
        uncertainty_ps: float,
        trace_paths: int,
    ) -> None:
        self.design = design
        self.setup = setup
        self.hold = hold
        self.cell_slack = cell_slack
        self.finite = finite
        stats = _slack_stats(setup, hold)
        self.wns_ps = stats["wns_ps"]
        self.tns_ps = stats["tns_ps"]
        self.hold_wns_ps = stats["hold_wns_ps"]
        self.hold_tns_ps = stats["hold_tns_ps"]
        self.violating_endpoints = stats["violating_endpoints"]
        self.hold_violating_endpoints = stats["hold_violating_endpoints"]
        self.endpoint_count = stats["endpoint_count"]
        # What the lazy trace reads, as of this analysis: later sizing
        # rebinds the lane's arrays and useful skew edits the tree's dict.
        self._a_max = a_max
        self._wire = wire
        self._is_weak = is_weak
        self._tree = tree
        self._useful = dict(tree.useful_skew_ps) if tree is not None else {}
        self._uncertainty_ps = uncertainty_ps
        self._trace_paths = trace_paths

    @property
    def register_hold(self) -> np.ndarray:
        """Hold slacks of the register endpoints (primary outputs dropped)."""
        return self.hold[: len(self.design.ep_active_idx)]

    @cached_property
    def endpoint_slack_ps(self) -> Dict[str, float]:
        return dict(zip(self.design.endpoint_keys, self.setup.tolist()))

    @cached_property
    def endpoint_hold_slack_ps(self) -> Dict[str, float]:
        return dict(zip(self.design.endpoint_keys, self.hold.tolist()))

    @cached_property
    def cell_slack_ps(self) -> Dict[str, float]:
        names = self.design.cell_names
        kept = np.flatnonzero(self.finite)
        return dict(zip(
            [names[i] for i in kept.tolist()], self.cell_slack[kept].tolist()
        ))

    @cached_property
    def trace(self) -> CriticalTrace:
        d = self.design
        index = d.index
        weak = self._is_weak.tolist()
        a_max, wire = self._a_max.tolist(), self._wire.tolist()
        return _trace_critical(
            self.endpoint_slack_ps,
            lambda name: index.get(name, d.S) < d.S,
            lambda name: weak[index[name]],
            _LazyPredMax(d, a_max, wire),
            _LazyWorstDriver(d, a_max, wire),
            _latency_lookup(self._tree),
            self._useful, self._uncertainty_ps, self._trace_paths,
        )

    @property
    def critical_path(self) -> List[str]:
        return self.trace.critical_path

    @property
    def harmful_skew_paths(self) -> int:
        return self.trace.harmful_skew_paths

    @property
    def weak_cell_pct(self) -> float:
        return self.trace.weak_cell_pct

    def report(self) -> TimingReport:
        """The full :class:`TimingReport` of this lane."""
        trace = self.trace
        return TimingReport(
            wns_ps=self.wns_ps,
            tns_ps=self.tns_ps,
            hold_wns_ps=self.hold_wns_ps,
            hold_tns_ps=self.hold_tns_ps,
            violating_endpoints=self.violating_endpoints,
            hold_violating_endpoints=self.hold_violating_endpoints,
            endpoint_count=self.endpoint_count,
            endpoint_slack_ps=self.endpoint_slack_ps,
            endpoint_hold_slack_ps=self.endpoint_hold_slack_ps,
            critical_path=trace.critical_path,
            critical_launch_capture=trace.critical_launch_capture,
            weak_cell_pct=trace.weak_cell_pct,
            harmful_skew_paths=trace.harmful_skew_paths,
            cell_slack_ps=self.cell_slack_ps,
        )


def _gate_delays(
    design: CompiledDesign, lanes: Sequence[LaneState], scales: np.ndarray
) -> np.ndarray:
    """``(B, V)`` gate delays: each lane's ``(intrinsic + R * load) * scale``
    with the load folded exactly as ``LaneState.loads``."""
    load = np.stack([lane.wire_cap for lane in lanes])[:, design.out_net]
    caps = np.stack([lane.cap_ext for lane in lanes])[:, design.sink_matrix]
    for k in range(caps.shape[2]):
        load = load + caps[:, :, k]
    intrinsic = np.stack([lane.intrinsic for lane in lanes])
    drive_res = np.stack([lane.drive_res for lane in lanes])
    return (intrinsic + drive_res * load) * scales[:, None]


def run_sta_batch(
    design: CompiledDesign,
    lanes: Sequence[LaneState],
    constraints: TimingConstraints,
    clock_trees: Sequence[Optional[ClockTree]],
    delay_scales: Sequence[float],
    trace_paths: int = 10,
) -> List[LaneTiming]:
    """Setup+hold STA for all lanes at once; one :class:`LaneTiming` each.

    A clock tree's ``latency_ps`` must hold its sinks in ``design.seq_names``
    order (``synthesize_clock_tree_batch`` builds them so).
    """
    B = len(lanes)
    V = design.V
    S = design.S
    period = constraints.period_ps
    unc = constraints.clock_uncertainty_ps

    own = _gate_delays(design, lanes, np.asarray(delay_scales, dtype=np.float64))
    wire = np.stack([lane.wire_delay for lane in lanes])

    lat = np.zeros((B, S))
    useful_arr = np.zeros((B, S))
    for b, tree in enumerate(clock_trees):
        if tree is None:
            continue
        lat[b] = np.fromiter(tree.latency_ps.values(), np.float64, count=S)
        for name, shift in tree.useful_skew_ps.items():
            useful_arr[b, design.index[name]] = shift

    # -- forward arrival propagation ------------------------------------
    a_max = np.zeros((B, V))
    a_min = np.zeros((B, V))
    if S:
        a_max[:, :S] = lat + own[:, :S]
        a_min[:, :S] = a_max[:, :S]
    if design.nodrv_idx.size:
        nd = design.nodrv_idx
        a_max[:, nd] = constraints.input_delay_ps + own[:, nd]
        a_min[:, nd] = a_max[:, nd]
    for level in design.levels:
        src = level["src"]
        net = level["net"]
        dst = level["dst"]
        seg = level["seg"]
        arr = a_max[:, src] + wire[:, net]
        amn = a_min[:, src] + wire[:, net]
        a_max[:, dst] = np.maximum.reduceat(arr, seg, axis=1) + own[:, dst]
        a_min[:, dst] = np.minimum.reduceat(amn, seg, axis=1) + own[:, dst]

    # -- endpoint and primary-output slacks -----------------------------
    act = design.ep_active_idx
    if design.ep_src.size:
        arr_ep = a_max[:, design.ep_src] + wire[:, design.ep_net]
        amn_ep = a_min[:, design.ep_src] + wire[:, design.ep_net]
        arr_max = np.maximum.reduceat(arr_ep, design.ep_seg, axis=1)
        arr_min = np.minimum.reduceat(amn_ep, design.ep_seg, axis=1)
        capture = lat[:, act] + useful_arr[:, act]
        setup_ep = (((period + capture) - constraints.setup_ps) - unc) - arr_max
        hold_ep = ((arr_min - capture) - constraints.hold_ps) - unc
    else:
        setup_ep = np.zeros((B, 0))
        hold_ep = np.zeros((B, 0))

    if design.po_driver.size:
        setup_po = (period - constraints.output_delay_ps) - a_max[:, design.po_driver]
        hold_po = a_min[:, design.po_driver] - constraints.hold_ps
    else:
        setup_po = np.zeros((B, 0))
        hold_po = np.zeros((B, 0))
    setup = np.concatenate([setup_ep, setup_po], axis=1)
    hold = np.concatenate([hold_ep, hold_po], axis=1)

    # -- backward required times -> per-cell worst setup slack ----------
    required = np.full((B, V), np.inf)
    flat = required.reshape(-1)
    lane_offset = np.arange(B)[:, None] * V
    if design.ep_src.size:
        cap_all = lat + useful_arr
        req_at_pin = ((period + cap_all) - constraints.setup_ps) - unc
        bounds = req_at_pin[:, design.ep_owner] - wire[:, design.ep_net]
        np.minimum.at(flat, (lane_offset + design.ep_src).ravel(), bounds.ravel())
    if design.po_req_driver.size:
        po_bound = period - constraints.output_delay_ps
        np.minimum.at(flat, (lane_offset + design.po_req_driver).ravel(), po_bound)
    for level in reversed(design.levels):
        arc_dst = level["arc_dst"]
        bounds = (required[:, arc_dst] - own[:, arc_dst]) - wire[:, level["net"]]
        np.minimum.at(flat, (lane_offset + level["src"]).ravel(), bounds.ravel())
    finite = np.isfinite(required)
    cell_slack = required - a_max

    return [
        LaneTiming(
            design, setup[b], hold[b], cell_slack[b], finite[b],
            a_max[b], wire[b], lane.is_weak, clock_trees[b], unc, trace_paths,
        )
        for b, lane in enumerate(lanes)
    ]
