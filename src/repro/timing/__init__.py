"""Static timing analysis: graph construction, setup/hold checks, WNS/TNS.

A classic block-based STA over the combinational DAG: max (setup) and min
(hold) arrival times propagate in topological order, endpoint slacks are
checked against the clock constraint with per-flop clock latencies from CTS,
and critical paths are traced back for diagnostics (weak-cell percentage,
harmful-skew detection — both Table I insights).
"""

from repro.timing.constraints import TimingConstraints, default_constraints
from repro.timing.graph import TimingGraph, build_timing_graph
from repro.timing.sta import TimingReport, run_sta

__all__ = [
    "TimingConstraints",
    "default_constraints",
    "TimingGraph",
    "build_timing_graph",
    "TimingReport",
    "run_sta",
]
