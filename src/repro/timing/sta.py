"""Block-based static timing analysis with setup and hold checks.

Definitions (all times in picoseconds):

- ``A_max[c]`` / ``A_min[c]``: latest / earliest signal arrival at the
  *output* of cell ``c``, measured from the launch clock edge at time 0.
  Register sources start at ``launch_latency + clk_to_q``.
- Setup check at register ``e``:
  ``slack = period + capture_latency(e) - setup - uncertainty - A_max(D pin)``
- Hold check at register ``e`` (same-edge):
  ``slack = A_min(D pin) - capture_latency(e) - hold - uncertainty``

Per-flop clock latencies come from CTS; intentional (useful) skew shifts a
flop's capture latency, relaxing setup at the cost of hold — exactly the
tradeoff the clock-tree recipe family plays with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cts.tree import ClockTree
from repro.netlist.netlist import Netlist
from repro.timing.constraints import TimingConstraints
from repro.timing.graph import TimingGraph, build_timing_graph


@dataclass
class TimingReport:
    """STA results for one run.

    TNS values are reported as non-negative magnitudes (the paper's Table IV
    convention): ``tns_ps = sum(max(0, -slack))`` over endpoints.
    """

    wns_ps: float
    tns_ps: float
    hold_wns_ps: float
    hold_tns_ps: float
    violating_endpoints: int
    hold_violating_endpoints: int
    endpoint_count: int
    endpoint_slack_ps: Dict[str, float] = field(default_factory=dict)
    endpoint_hold_slack_ps: Dict[str, float] = field(default_factory=dict)
    critical_path: List[str] = field(default_factory=list)
    critical_launch_capture: List[Tuple[str, str]] = field(default_factory=list)
    weak_cell_pct: float = 0.0
    harmful_skew_paths: int = 0
    # Per-cell worst setup slack (arrival vs. required), for the optimizer.
    cell_slack_ps: Dict[str, float] = field(default_factory=dict)

    def slack_histogram(self, bins: int = 10) -> Tuple[np.ndarray, np.ndarray]:
        slacks = np.array(list(self.endpoint_slack_ps.values()))
        return np.histogram(slacks, bins=bins)


def run_sta(
    netlist: Netlist,
    constraints: TimingConstraints,
    clock_tree: Optional[ClockTree] = None,
    graph: Optional[TimingGraph] = None,
    trace_paths: int = 10,
    delay_scale: float = 1.0,
) -> TimingReport:
    """Run setup+hold STA; ``clock_tree=None`` assumes an ideal clock."""
    if graph is None:
        graph = build_timing_graph(netlist, delay_scale=delay_scale)

    latency = _latency_lookup(clock_tree)
    useful = clock_tree.useful_skew_ps if clock_tree is not None else {}

    a_max: Dict[str, float] = {}
    a_min: Dict[str, float] = {}
    pred_max: Dict[str, Optional[str]] = {}

    for reg in netlist.sequential_cells():
        clk2q = graph.cell_delay_ps[reg.name]
        launch = latency(reg.name)
        a_max[reg.name] = launch + clk2q
        a_min[reg.name] = launch + clk2q
        pred_max[reg.name] = None

    for name in graph.order:
        drivers = graph.fanin[name]
        own_delay = graph.cell_delay_ps[name]
        if not drivers:
            # Driven only by primary inputs (rare): arrive at input_delay.
            a_max[name] = constraints.input_delay_ps + own_delay
            a_min[name] = constraints.input_delay_ps + own_delay
            pred_max[name] = None
            continue
        best_arr = -np.inf
        best_driver = None
        min_arr = np.inf
        for driver, wire in drivers:
            arr = a_max[driver] + wire
            if arr > best_arr:
                best_arr = arr
                best_driver = driver
            min_arr = min(min_arr, a_min[driver] + wire)
        a_max[name] = best_arr + own_delay
        a_min[name] = min_arr + own_delay
        pred_max[name] = best_driver

    setup_slack: Dict[str, float] = {}
    hold_slack: Dict[str, float] = {}
    worst_driver_of: Dict[str, Optional[str]] = {}
    period = constraints.period_ps
    unc = constraints.clock_uncertainty_ps

    for endpoint, drivers in graph.endpoint_fanin.items():
        if not drivers:
            continue
        capture = latency(endpoint) + useful.get(endpoint, 0.0)
        arr_max, driver_max = max(
            ((a_max[d] + w, d) for d, w in drivers), key=lambda t: t[0]
        )
        arr_min = min(a_min[d] + w for d, w in drivers)
        setup_slack[endpoint] = (
            period + capture - constraints.setup_ps - unc - arr_max
        )
        hold_slack[endpoint] = arr_min - capture - constraints.hold_ps - unc
        worst_driver_of[endpoint] = driver_max

    # Primary outputs: required = period - output_delay (ideal capture).
    for net_name in netlist.primary_outputs:
        net = netlist.nets[net_name]
        if net.driver is None or net.driver not in a_max:
            continue
        key = f"PO:{net_name}"
        setup_slack[key] = period - constraints.output_delay_ps - a_max[net.driver]
        hold_slack[key] = a_min[net.driver] - constraints.hold_ps

    report = _summarize(setup_slack, hold_slack)
    cells = netlist.cells
    trace = _trace_critical(
        setup_slack,
        lambda name: name in cells and cells[name].is_sequential,
        lambda name: name in cells and cells[name].cell_type.is_weak,
        pred_max, worst_driver_of, latency, useful, unc, trace_paths,
    )
    report.critical_path = trace.critical_path
    report.critical_launch_capture = trace.critical_launch_capture
    report.harmful_skew_paths = trace.harmful_skew_paths
    report.weak_cell_pct = trace.weak_cell_pct
    report.cell_slack_ps = _cell_slacks(
        netlist, graph, a_max, setup_slack, constraints, latency, useful
    )
    return report


def _cell_slacks(
    netlist: Netlist,
    graph: TimingGraph,
    a_max: Dict[str, float],
    setup_slack: Dict[str, float],
    constraints: TimingConstraints,
    latency,
    useful: Dict[str, float],
) -> Dict[str, float]:
    """Backward required-time propagation -> per-cell worst setup slack."""
    required: Dict[str, float] = {}
    period = constraints.period_ps
    unc = constraints.clock_uncertainty_ps
    for endpoint, drivers in graph.endpoint_fanin.items():
        capture = latency(endpoint) + useful.get(endpoint, 0.0)
        req_at_pin = period + capture - constraints.setup_ps - unc
        for driver, wire in drivers:
            bound = req_at_pin - wire
            if driver not in required or bound < required[driver]:
                required[driver] = bound
    for net_name in netlist.primary_outputs:
        net = netlist.nets[net_name]
        if net.driver is None:
            continue
        bound = period - constraints.output_delay_ps
        if net.driver not in required or bound < required[net.driver]:
            required[net.driver] = bound
    for name in reversed(graph.order):
        own_delay = graph.cell_delay_ps[name]
        req_here = required.get(name, np.inf)
        for driver, wire in graph.fanin[name]:
            bound = req_here - own_delay - wire
            if driver not in required or bound < required[driver]:
                required[driver] = bound
    slack: Dict[str, float] = {}
    for name, arrival in a_max.items():
        req = required.get(name)
        if req is not None and np.isfinite(req):
            slack[name] = req - arrival
    return slack


def _latency_lookup(clock_tree: Optional[ClockTree]):
    if clock_tree is None:
        return lambda name: 0.0
    table = clock_tree.latency_ps
    return lambda name: table.get(name, 0.0)


def _slack_stats(setup: np.ndarray, hold: np.ndarray) -> Dict[str, float]:
    """A report's summary fields from its endpoint setup and hold slacks
    (1-D, in endpoint-dict order)."""
    s_values = setup if setup.size else np.zeros(1)
    h_values = hold if hold.size else np.zeros(1)
    return {
        "wns_ps": float(s_values.min()),
        "tns_ps": float(np.maximum(0.0, -s_values).sum()),
        "hold_wns_ps": float(h_values.min()),
        "hold_tns_ps": float(np.maximum(0.0, -h_values).sum()),
        "violating_endpoints": int((s_values < 0).sum()),
        "hold_violating_endpoints": int((h_values < 0).sum()),
        "endpoint_count": len(setup),
    }


def _summarize(
    setup_slack: Dict[str, float], hold_slack: Dict[str, float]
) -> TimingReport:
    return TimingReport(
        **_slack_stats(
            np.array(list(setup_slack.values()), dtype=np.float64),
            np.array(list(hold_slack.values()), dtype=np.float64),
        ),
        endpoint_slack_ps=setup_slack,
        endpoint_hold_slack_ps=hold_slack,
    )


class CriticalTrace(NamedTuple):
    """The critical-path fields of a :class:`TimingReport`."""

    critical_path: List[str]
    critical_launch_capture: List[Tuple[str, str]]
    harmful_skew_paths: int
    weak_cell_pct: float


def _trace_critical(
    endpoint_slack: Dict[str, float],
    is_sequential: Callable[[str], bool],
    is_weak: Callable[[str], bool],
    pred_max,
    worst_driver_of,
    latency,
    useful: Dict[str, float],
    uncertainty_ps: float,
    trace_paths: int,
) -> CriticalTrace:
    """Trace the worst ``trace_paths`` endpoints back to their launch flop.

    Computes the critical-path diagnostics the insight analyzers read:
    weak-cell percentage on critical paths and harmful-skew path count.
    ``pred_max`` / ``worst_driver_of`` map a cell / endpoint to its worst
    driver (``.get``); ``is_sequential`` and ``is_weak`` classify a cell by
    name, so the stacked engine traces from lane arrays and the scalar STA
    from its netlist through this one function.
    """
    reg_endpoints = [
        (slack, name) for name, slack in endpoint_slack.items()
        if not name.startswith("PO:")
    ]
    reg_endpoints.sort()
    path_cells: List[str] = []
    critical_path: List[str] = []
    launch_capture: List[Tuple[str, str]] = []
    harmful = 0
    for slack, endpoint in reg_endpoints[:trace_paths]:
        cursor = worst_driver_of.get(endpoint)
        chain = [endpoint]
        while cursor is not None:
            chain.append(cursor)
            cursor = pred_max.get(cursor)
        launch = chain[-1]
        if is_sequential(launch):
            launch_capture.append((launch, endpoint))
            skew = (latency(endpoint) + useful.get(endpoint, 0.0)) - latency(launch)
            if skew < -uncertainty_ps:
                harmful += 1
        path_cells.extend(chain)
        if not critical_path:
            critical_path = list(reversed(chain))
    weak_pct = 0.0
    if path_cells:
        weak = sum(1 for name in path_cells if is_weak(name))
        weak_pct = 100.0 * weak / len(path_cells)
    return CriticalTrace(critical_path, launch_capture, harmful, weak_pct)
