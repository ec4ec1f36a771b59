"""Stacked average-power analysis over N lanes of one compiled design.

Per-cell energy terms are computed elementwise over ``(B, V)`` stacks with
the scalar engine's exact expression order; the running ``+=`` accumulators
of the scalar loop are left folds over netlist dict order, reproduced here
with ``np.cumsum`` over the dict-order gather (cumsum is a sequential left
fold, unlike ``np.sum``'s pairwise tree).  The clock-network term is a
handful of scalar ops per lane, mirrored directly.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.cts.tree import ClockTree
from repro.errors import FlowError
from repro.netlist.compiled import CompiledDesign, LaneState
from repro.power.analysis import PowerReport


def _fold(values: np.ndarray) -> float:
    """Sequential left-fold sum along the last axis (matches ``+=`` loops)."""
    if values.size == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


def analyze_power_batch(
    design: CompiledDesign,
    lanes: Sequence[LaneState],
    clock_trees: Sequence[ClockTree],
    leakage_biases: Sequence[float],
    clock_gating_efficiencies: Sequence[float],
) -> List[PowerReport]:
    """Average power per lane, bit-identical to ``analyze_power``."""
    if design.clock is None:
        raise FlowError(f"{design.name}: no clock; cannot compute power")
    freq_hz = 1e12 / design.clock.period_ps
    vdd = design.library.node.vdd
    node = design.library.node

    reports: List[PowerReport] = []
    for b, lane in enumerate(lanes):
        bias = leakage_biases[b]
        eff = clock_gating_efficiencies[b]
        load = lane.loads()
        switch_energy_fj = lane.energy + 0.5 * load * vdd * vdd
        toggle_mw = switch_energy_fj * 1e-15 * design.activity * freq_hz * 1e3
        leak_terms = lane.leakage * bias

        leakage_nw = _fold(leak_terms[design.dictorder])
        comb_mw = _fold(toggle_mw[design.dictorder_comb])

        seq = design.dictorder_seq
        clock_pin_fj = 0.6 * lane.energy[seq]
        idle_fraction = 1.0 - design.activity[seq]
        gated = eff * idle_fraction
        gate_overhead = 0.30 * eff
        clock_pin_mw = (
            clock_pin_fj * 1e-15 * freq_hz * (1.0 - gated + gate_overhead) * 1e3
        )
        seq_mw = _fold(toggle_mw[seq] + clock_pin_mw)

        tree = clock_trees[b]
        clock_cap_ff = tree.total_buffer_cap_ff + tree.total_wire_cap_ff
        buffer_internal_fj = tree.buffer_count * 2.0 * node.switch_energy_fj
        clock_energy_fj = buffer_internal_fj + 0.5 * clock_cap_ff * vdd * vdd
        gating_share = 0.35 * eff
        gate_load = 0.12 * eff
        clock_mw = (
            clock_energy_fj * 1e-15 * freq_hz
            * (1.0 - gating_share + gate_load) * 1e3
        )
        reports.append(PowerReport(
            leakage_mw=leakage_nw * 1e-6,
            combinational_mw=comb_mw,
            sequential_mw=seq_mw,
            clock_mw=clock_mw,
        ))
    return reports
