"""Compiled array-form design IR for the batched flow simulator.

A :class:`CompiledDesign` freezes one netlist *topology* (cell/net identity,
connectivity, levelized timing arcs, load-fold tables) into flat numpy index
arrays so the batch kernels in ``placement/batch.py``, ``cts/batch.py``,
``routing/batch.py``, ``timing/vector_sta.py`` and ``power/batch.py`` can
evaluate N jobs as stacked arrays.  Per-job *values* (wire parasitics, cell
sizing, clock latencies) live in :class:`LaneState`, one per job.

The IR is shared across every job of a compatibility group — same design
profile and netlist seed, hence bit-identical pristine topology — and is
recompiled per lane once topologies diverge (hold-buffer insertion during
optimization adds cells and nets).

Index spaces:

- **canonical** cell index: sequential cells first (``sequential_cells()``
  order), then combinational cells in topological order.  This is exactly
  the insertion order of the scalar STA's ``a_max`` dict, so per-cell result
  dicts can be materialized with the correct key order.
- **extended** cell index: canonical plus clock cells (for input-cap
  gathers; clock-cell sizing never changes).  One extra pad slot holds cap
  0.0 so ragged sink lists can fold with exact float semantics
  (``x + 0.0 == x`` bitwise for the non-negative caps involved).
- **dict-order** cell index: non-clock cells in ``netlist.cells`` order —
  the accumulation order of the scalar power engine and the placer's cell
  array.
- **net** index: data (non-clock) nets in ``netlist.nets`` order, plus one
  pad slot whose wire cap/delay stay 0.0.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.netlist.netlist import Netlist


class CompiledDesign:
    """Static topology of one netlist, flattened to index arrays."""

    def __init__(self, netlist: Netlist) -> None:
        self.name = netlist.name
        self.library = netlist.library

        # --- canonical cell order: sequential first, then topological comb.
        seq_cells = netlist.sequential_cells()
        comb_order = netlist.topological_order()
        self.seq_names: List[str] = [c.name for c in seq_cells]
        self.comb_names: List[str] = list(comb_order)
        self.cell_names: List[str] = self.seq_names + self.comb_names
        self.S = len(self.seq_names)
        self.V = len(self.cell_names)
        self.index: Dict[str, int] = {n: i for i, n in enumerate(self.cell_names)}

        clock_names = [c.name for c in netlist.cells.values() if c.is_clock_cell]
        self.clock_names = clock_names
        self.ext_index: Dict[str, int] = dict(self.index)
        for n in clock_names:
            self.ext_index[n] = len(self.ext_index)
        self.E = len(self.ext_index)  # cap-gather space; slot E is the 0.0 pad

        # Static clock-cell input caps (never resized by any optimizer move).
        self.clock_caps = np.array(
            [netlist.cells[n].cell_type.input_cap_ff for n in clock_names],
            dtype=np.float64,
        )

        # --- data nets ------------------------------------------------------
        data_nets = [n for n in netlist.nets.values() if not n.is_clock]
        self.net_names: List[str] = [n.name for n in data_nets]
        self.net_index: Dict[str, int] = {n: i for i, n in enumerate(self.net_names)}
        self.N = len(self.net_names)  # wire arrays carry N+1 slots; slot N = pad

        out_net = np.full(self.V, self.N, dtype=np.int64)
        for name, i in self.index.items():
            cell = netlist.cells[name]
            if cell.output_net and not netlist.nets[cell.output_net].is_clock:
                out_net[i] = self.net_index[cell.output_net]
        self.out_net = out_net

        # --- load-fold table: load = wire_cap(out net) + sink caps in order.
        sink_rows: List[List[int]] = [[] for _ in range(self.V)]
        for name, i in self.index.items():
            net = netlist.net_of_output(name)
            if net is None or net.is_clock:
                continue
            for sink, pin in net.sinks:
                if pin >= 0:
                    sink_rows[i].append(self.ext_index[sink])
        max_fanout = max((len(r) for r in sink_rows), default=0)
        self.sink_matrix = np.full((self.V, max_fanout), self.E, dtype=np.int64)
        for i, row in enumerate(sink_rows):
            if row:
                self.sink_matrix[i, : len(row)] = row

        # --- timing arcs (mirrors build_timing_graph) -----------------------
        fanin: Dict[str, List[tuple]] = {n: [] for n in self.comb_names}
        ep: Dict[str, List[tuple]] = {n: [] for n in self.seq_names}
        for driver, net_name, sink in netlist.iter_timing_arcs():
            if netlist.cells[driver].is_clock_cell:
                continue
            sink_cell = netlist.cells[sink]
            if sink_cell.is_sequential:
                ep[sink].append((driver, net_name))
            elif not sink_cell.is_clock_cell:
                fanin[sink].append((driver, net_name))

        level: Dict[str, int] = {n: 0 for n in self.seq_names}
        nodrv: List[str] = []
        for name in comb_order:
            arcs = fanin[name]
            if not arcs:
                nodrv.append(name)
                level[name] = 0
                continue
            level[name] = 1 + max(level[d] for d, _ in arcs)
        self.nodrv_idx = np.array(
            [self.index[n] for n in nodrv], dtype=np.int64
        )

        topo_pos = {n: k for k, n in enumerate(comb_order)}
        max_level = max((level[n] for n in comb_order if fanin[n]), default=0)

        # Flat per-cell fanin arrays in (level, topo) order; per-cell offsets
        # let the lazy critical-path tracer replay the scalar first-strict-max
        # driver scan.
        fanin_src: List[int] = []
        fanin_net: List[int] = []
        fanin_off = np.zeros(self.V + 1, dtype=np.int64)
        # levels: list of dicts with the arrays the forward/backward passes use
        self.levels: List[dict] = []
        off_cursor = 0
        per_cell_ranges: Dict[int, tuple] = {}
        for lv in range(1, max_level + 1):
            cells_lv = [n for n in comb_order if fanin[n] and level[n] == lv]
            cells_lv.sort(key=lambda n: topo_pos[n])
            dst_idx = np.array([self.index[n] for n in cells_lv], dtype=np.int64)
            seg_starts = np.zeros(len(cells_lv), dtype=np.int64)
            a0 = off_cursor
            for j, n in enumerate(cells_lv):
                seg_starts[j] = off_cursor - a0
                i = self.index[n]
                start = off_cursor
                for d, net_name in fanin[n]:
                    fanin_src.append(self.index[d])
                    fanin_net.append(self.net_index[net_name])
                    off_cursor += 1
                per_cell_ranges[i] = (start, off_cursor)
            arc_src = np.array(fanin_src[a0:off_cursor], dtype=np.int64)
            arc_net = np.array(fanin_net[a0:off_cursor], dtype=np.int64)
            # Backward pass: arcs of this level grouped by source cell.
            perm = np.argsort(arc_src, kind="stable")
            sorted_src = arc_src[perm]
            if sorted_src.size:
                boundary = np.r_[True, sorted_src[1:] != sorted_src[:-1]]
                bw_seg_starts = np.flatnonzero(boundary)
                bw_src = sorted_src[bw_seg_starts]
            else:
                bw_seg_starts = np.zeros(0, dtype=np.int64)
                bw_src = np.zeros(0, dtype=np.int64)
            self.levels.append({
                "dst": dst_idx,
                "seg": seg_starts,
                "src": arc_src,
                "net": arc_net,
                "bw_perm": perm,
                "bw_seg": bw_seg_starts,
                "bw_src": bw_src,
            })
        self.fanin_src = np.array(fanin_src, dtype=np.int64)
        self.fanin_net = np.array(fanin_net, dtype=np.int64)
        for i in range(self.V):
            rng = per_cell_ranges.get(i)
            if rng is not None:
                fanin_off[i] = rng[0]
        # second pass: offsets as [start, end) pairs stored separately
        self.fanin_start = np.zeros(self.V, dtype=np.int64)
        self.fanin_end = np.zeros(self.V, dtype=np.int64)
        for i, rng in per_cell_ranges.items():
            self.fanin_start[i], self.fanin_end[i] = rng

        # --- endpoint arcs, grouped by endpoint in sequential order ---------
        ep_src: List[int] = []
        ep_net: List[int] = []
        ep_off = np.zeros(self.S + 1, dtype=np.int64)
        for j, n in enumerate(self.seq_names):
            for d, net_name in ep[n]:
                ep_src.append(self.index[d])
                ep_net.append(self.net_index[net_name])
            ep_off[j + 1] = len(ep_src)
        self.ep_src = np.array(ep_src, dtype=np.int64)
        self.ep_net = np.array(ep_net, dtype=np.int64)
        self.ep_off = ep_off
        active = ep_off[1:] > ep_off[:-1]
        self.ep_active = active  # endpoints with at least one driver
        self.ep_active_idx = np.flatnonzero(active)  # into seq order
        # reduceat segments over the flat ep arrays, one per active endpoint
        self.ep_seg = ep_off[:-1][active]
        # Backward: endpoint arcs grouped by driver (min is order-free).
        # req_at_pin depends on the endpoint, so keep the owning endpoint id.
        ep_owner = np.repeat(np.arange(self.S), np.diff(ep_off))
        perm = np.argsort(self.ep_src, kind="stable")
        self.ep_bw_perm = perm
        sorted_src = self.ep_src[perm]
        if sorted_src.size:
            boundary = np.r_[True, sorted_src[1:] != sorted_src[:-1]]
            self.ep_bw_seg = np.flatnonzero(boundary)
            self.ep_bw_src = sorted_src[self.ep_bw_seg]
        else:
            self.ep_bw_seg = np.zeros(0, dtype=np.int64)
            self.ep_bw_src = np.zeros(0, dtype=np.int64)
        self.ep_owner = ep_owner

        # --- primary outputs -------------------------------------------------
        po_keys: List[str] = []
        po_driver: List[int] = []
        po_req_driver: List[int] = []
        for net_name in netlist.primary_outputs:
            net = netlist.nets[net_name]
            if net.driver is None:
                continue
            drv = self.index.get(net.driver)
            if drv is not None:
                po_keys.append(f"PO:{net_name}")
                po_driver.append(drv)
                po_req_driver.append(drv)
        self.po_keys = po_keys
        self.po_driver = np.array(po_driver, dtype=np.int64)
        self.po_req_driver = np.array(po_req_driver, dtype=np.int64)

        # --- dict-order views (power accumulation, placer cell array) -------
        dictorder: List[int] = []
        dict_is_seq: List[bool] = []
        for name, cell in netlist.cells.items():
            if cell.is_clock_cell:
                continue
            dictorder.append(self.index[name])
            dict_is_seq.append(cell.is_sequential)
        self.dictorder = np.array(dictorder, dtype=np.int64)
        dict_is_seq_arr = np.array(dict_is_seq, dtype=bool)
        self.dictorder_seq = self.dictorder[dict_is_seq_arr]
        self.dictorder_comb = self.dictorder[~dict_is_seq_arr]

        # Static per-cell attributes (never touched by optimizer moves).
        self.activity = np.array(
            [netlist.cells[n].switching_activity for n in self.cell_names],
            dtype=np.float64,
        )
        self.is_weak_ignore = None  # weak% is read live from lane cell types

        # --- placer connectivity (params-independent part) -------------------
        # Placer cell space == dict-order space (non-clock cells, dict order).
        self.p_names = [self.cell_names[i] for i in self.dictorder]
        p_index = {n: i for i, n in enumerate(self.p_names)}
        self.p_cluster = np.array(
            [netlist.cells[n].cluster for n in self.p_names], dtype=np.int64
        )
        self.p_area = np.array(
            [netlist.cells[n].area_um2 for n in self.p_names], dtype=np.float64
        )
        max_cell_level = max(
            (c.level for c in netlist.cells.values()), default=1
        ) or 1
        pin_cell: List[int] = []
        pin_net: List[int] = []
        net_sizes: List[int] = []
        crit: List[float] = []
        p_net_names: List[str] = []
        for net in netlist.nets.values():
            if net.is_clock:
                continue
            members = []
            if net.driver is not None and net.driver in p_index:
                members.append(p_index[net.driver])
            for sink, pin in net.sinks:
                if pin >= 0 and sink in p_index:
                    members.append(p_index[sink])
            if len(members) < 2:
                continue
            driver_level = (
                netlist.cells[net.driver].level if net.driver in netlist.cells else 0
            )
            crit.append(driver_level / max_cell_level)
            for member in members:
                pin_cell.append(member)
                pin_net.append(len(net_sizes))
            net_sizes.append(len(members))
            p_net_names.append(net.name)
        self.pin_cell = np.array(pin_cell, dtype=np.int64)
        self.pin_net = np.array(pin_net, dtype=np.int64)
        self.p_net_sizes = np.array(net_sizes, dtype=np.int64)
        self.p_net_crit = np.array(crit, dtype=np.float64)
        self.p_net_names = p_net_names
        # data-net index -> placer net index (-1: annotate default length 2.0)
        self.placer_net_of = np.full(self.N, -1, dtype=np.int64)
        for k, net_name in enumerate(p_net_names):
            self.placer_net_of[self.net_index[net_name]] = k

        # --- routing pin geometry (static pin sets in placer space) ----------
        # Mirrors groute._pin_positions: driver + pin>=0 sinks that are placed
        # cells; clock cells never receive positions, so they are statically
        # excluded.
        cand_net: List[int] = []
        rt_pin: List[int] = []
        rt_seg: List[int] = []
        for net in netlist.nets.values():
            if net.is_clock:
                continue
            pins: List[int] = []
            if net.driver is not None and net.driver in p_index:
                pins.append(p_index[net.driver])
            for sink, pin in net.sinks:
                if pin >= 0 and sink in p_index:
                    pins.append(p_index[sink])
            if len(pins) < 2:
                continue
            cand_net.append(self.net_index[net.name])
            rt_seg.append(len(rt_pin))
            rt_pin.extend(pins)
        self.route_cand_net = np.array(cand_net, dtype=np.int64)
        self.route_pin = np.array(rt_pin, dtype=np.int64)
        self.route_seg = np.array(rt_seg, dtype=np.int64)

        # Sequential cells' placer-space indices (CTS sink positions).
        self.seq_p_idx = np.array(
            [p_index[n] for n in self.seq_names], dtype=np.int64
        )


class LaneState:
    """Per-job dynamic state over a :class:`CompiledDesign` index space."""

    def __init__(self, design: CompiledDesign, netlist: Netlist) -> None:
        self.design = design
        self.netlist = netlist
        self.cell_objs = [netlist.cells[n] for n in design.cell_names]
        self.net_objs = [netlist.nets[n] for n in design.net_names]
        self.refresh_cell_params()
        self.refresh_wire_state()

    # -- cell sizing state -------------------------------------------------
    def refresh_cell_params(self) -> None:
        """Re-gather per-cell library parameters from the netlist."""
        d = self.design
        intr = np.empty(d.V, dtype=np.float64)
        res = np.empty(d.V, dtype=np.float64)
        leak = np.empty(d.V, dtype=np.float64)
        energy = np.empty(d.V, dtype=np.float64)
        cap_ext = np.zeros(d.E + 1, dtype=np.float64)
        for i, cell in enumerate(self.cell_objs):
            ct = cell.cell_type
            intr[i] = ct.intrinsic_delay_ps
            res[i] = ct.drive_res_kohm
            leak[i] = ct.leakage_nw
            energy[i] = ct.internal_energy_fj
            cap_ext[i] = ct.input_cap_ff
        if d.clock_caps.size:
            cap_ext[d.V:d.E] = d.clock_caps
        self.intrinsic = intr
        self.drive_res = res
        self.leakage = leak
        self.energy = energy
        self.cap_ext = cap_ext

    # -- wire parasitics ---------------------------------------------------
    def refresh_wire_state(self) -> None:
        """Re-gather wire cap/delay from the netlist's net objects."""
        d = self.design
        wc = np.zeros(d.N + 1, dtype=np.float64)
        wd = np.zeros(d.N + 1, dtype=np.float64)
        for i, net in enumerate(self.net_objs):
            wc[i] = net.wire_cap_ff
            wd[i] = net.wire_delay_ps
        self.wire_cap = wc
        self.wire_delay = wd

    # -- derived quantities -------------------------------------------------
    def loads(self) -> np.ndarray:
        """Per-cell output load, bit-identical to ``output_load_ff``."""
        d = self.design
        load = self.wire_cap[d.out_net].copy()
        caps = self.cap_ext[d.sink_matrix]  # (V, maxF); pad column -> 0.0
        for k in range(caps.shape[1]):
            load = load + caps[:, k]
        return load

    def gate_delays(self, delay_scale: float) -> np.ndarray:
        load = self.loads()
        return (self.intrinsic + self.drive_res * load) * delay_scale
