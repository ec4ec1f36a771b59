"""Batched clock-tree synthesis over N lanes of one compiled design.

The H-tree recursion is inherently per-lane — each lane's placement (and
``max_cluster_size``) shapes a different topology — but everything around it
is amortized across the batch: the buffer-cell lookup, the sink name/cap
tables (gathered once from the compiled design's canonical arrays), and the
per-lane sink position gathers from each lane's position array.  The
balancing pass and its RNG draw run per lane on the lane's own derived
stream, exactly as the scalar path does, so latencies are bit-identical.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.cts.tree import ClockTree, CtsParams, _balance, _TreeBuilder
from repro.errors import FlowError
from repro.netlist.compiled import CompiledDesign, LaneState
from repro.techlib.cells import CellFunction
from repro.utils.rng import derive_rng


def synthesize_clock_tree_batch(
    design: CompiledDesign,
    lanes: Sequence[LaneState],
    params_list: Sequence[CtsParams],
    seed: int = 0,
) -> List[ClockTree]:
    """Build one clock tree per lane (placement must have run on every
    lane).  Each tree's ``latency_ps`` holds the sinks in
    ``design.seq_names`` order."""
    if design.clock is None:
        raise FlowError(f"{design.name}: no clock defined; cannot run CTS")
    S = design.S
    if S == 0:
        raise FlowError(
            f"{design.name}: clock {design.clock.net_name} has no sinks"
        )
    node = design.library.node
    names = list(design.seq_names)
    # Pristine DFF sizing at CTS time: input caps are shared across lanes.
    sink_caps = design.table.input_cap[lanes[0].variant[:S]]
    source = np.asarray(design.clock.source_xy, dtype=np.float64)
    buffer_cells = {}
    for params in params_list:
        drive = params.buffer_drive if params.buffer_drive in (1, 2, 4, 8) else 4
        if drive not in buffer_cells:
            buffer_cells[drive] = next(
                c for c in design.library.variants(CellFunction.CLKBUF)
                if c.drive == drive
            )

    trees: List[ClockTree] = []
    for b, lane in enumerate(lanes):
        params = params_list[b]
        rng = derive_rng(seed, "cts", design.name)
        drive = params.buffer_drive if params.buffer_drive in (1, 2, 4, 8) else 4
        buffer_cell = buffer_cells[drive]
        positions = lane.position[design.seq_p_idx]
        builder = _TreeBuilder(
            node=node,
            buffer_cell=buffer_cell,
            max_cluster=max(2, params.max_cluster_size),
        )
        latencies = np.zeros(S)
        builder.build(source, np.arange(S), positions, sink_caps, 0, 0.0, latencies)
        latencies = _balance(latencies, params, rng)
        latency_ps = {name: float(lat) for name, lat in zip(names, latencies)}
        trees.append(ClockTree(
            sink_names=list(names),
            latency_ps=latency_ps,
            buffer_count=builder.buffer_count,
            tree_depth=builder.max_depth,
            wirelength_um=builder.wirelength_um,
            total_buffer_cap_ff=builder.buffer_count * buffer_cell.input_cap_ff,
            total_wire_cap_ff=builder.wirelength_um * node.wire_cap_ff_per_um,
        ))
    return trees
