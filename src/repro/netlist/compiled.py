"""Compiled array-form design IR and the lane arrays of the stacked flow.

A :class:`CompiledDesign` freezes one netlist *topology* (cell/net identity,
connectivity, levelized timing arcs, load-fold tables) into flat numpy index
arrays so the batch kernels in ``placement/batch.py``, ``cts/batch.py``,
``routing/batch.py``, ``timing/vector_sta.py`` and ``power/batch.py`` can
evaluate N jobs as stacked arrays.  It also carries the netlist's static
data (name, library, die, blockages, clock), so helpers that read only
those accept it in place of a :class:`Netlist`.

A :class:`LaneState` is the whole per-job state: placer-space positions,
wire length/cap/delay per data net, and each canonical cell's library
variant (an index into the design's :class:`VariantTable`).  The kernels
read and write these arrays and never touch a ``Netlist``.

A :class:`DesignTemplate` is one (profile, netlist seed)'s read-only start
point: the compiled design, the default constraints, the topology-only
placement snapshot values and the pristine lane.  ``flow.runner`` caches
one per (profile, seed) next to the pristine netlist bytes, so a stack
copies B lanes of arrays instead of unpickling and recompiling B netlists.

Only hold fixing needs objects: a lane that may splice buffers is written
into one freshly unpickled netlist (:meth:`LaneState.write_to`); if buffers
are spliced the lane is recompiled over its own width-1 design
(:meth:`LaneState.from_netlist`) and continues as an array lane.

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

from typing import Dict, List, Optional

import numpy as np

from repro.netlist.netlist import Netlist
from repro.techlib.library import Library
from repro.timing.constraints import default_constraints


class VariantTable:
    """Every cell type of one library as parallel arrays.

    A lane's sizing is one index per canonical cell into this table, so
    re-gathering per-cell parameters after sizing moves is one ``take``
    per parameter, and an up/down sizing move is one ladder lookup.
    """

    def __init__(self, library: Library) -> None:
        self.types = list(library.cells.values())
        self.index: Dict[str, int] = {
            cell.name: k for k, cell in enumerate(self.types)
        }

        def column(attr: str) -> np.ndarray:
            return np.array([getattr(c, attr) for c in self.types],
                            dtype=np.float64)

        self.intrinsic = column("intrinsic_delay_ps")
        self.drive_res = column("drive_res_kohm")
        self.leakage = column("leakage_nw")
        self.energy = column("internal_energy_fj")
        self.input_cap = column("input_cap_ff")
        self.area = column("area_um2")
        self.is_weak = np.array([c.is_weak for c in self.types], dtype=bool)

        def ladder(step) -> np.ndarray:
            out = [step(c) for c in self.types]
            return np.array(
                [-1 if c is None else self.index[c.name] for c in out],
                dtype=np.int64,
            )

        self.up = ladder(library.upsize)      # -1: already strongest
        self.down = ladder(library.downsize)  # -1: already weakest


class CompiledDesign:
    """Static topology of one netlist, flattened to index arrays."""

    def __init__(self, netlist: Netlist) -> None:
        self.name = netlist.name
        self.library = netlist.library
        self.die_width_um = netlist.die_width_um
        self.die_height_um = netlist.die_height_um
        self.blockages = list(netlist.blockages)
        self.clock = netlist.clock
        self.cell_count = netlist.cell_count
        self.net_count = netlist.net_count
        self.table = VariantTable(netlist.library)

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
            self.levels.append({
                "dst": dst_idx,
                "seg": seg_starts,
                "src": arc_src,
                "net": arc_net,
                # Each arc's sink, for the backward required-time sweep.
                "arc_dst": np.repeat(
                    dst_idx, np.diff(np.r_[seg_starts, len(arc_src)])
                ),
            })
        # The tracer walks a handful of chains per report in Python, so it
        # reads plain lists: [start, end) fanin ranges per canonical cell.
        self.fanin_src = fanin_src
        self.fanin_net = fanin_net
        self.fanin_start = [0] * self.V
        self.fanin_end = [0] * self.V
        for i, (start, end) in per_cell_ranges.items():
            self.fanin_start[i], self.fanin_end[i] = start, end

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
        # Backward: req_at_pin depends on the endpoint, so each endpoint
        # arc keeps its owning endpoint id (the min sweep is order-free).
        self.ep_owner = np.repeat(np.arange(self.S), np.diff(ep_off))

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
        # Report key order: active register endpoints, then primary outputs.
        self.endpoint_keys: List[str] = [
            self.seq_names[j] for j in self.ep_active_idx.tolist()
        ] + po_keys
        self.ep_src_list = self.ep_src.tolist()
        self.ep_net_list = self.ep_net.tolist()
        self.ep_off_list = self.ep_off.tolist()
        # Rank of each canonical cell's name in sorted order: the optimizer
        # sorts (slack, name) candidate tuples, ties broken by name.
        self.name_rank = np.empty(self.V, dtype=np.int64)
        self.name_rank[
            sorted(range(self.V), key=self.cell_names.__getitem__)
        ] = np.arange(self.V)

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
        # Area fold order: every cell (clock cells included) in dict order,
        # as extended indices; clock-cell areas never change.
        self.area_order = np.array(
            [self.ext_index[name] for name in netlist.cells], dtype=np.int64
        )
        self.clock_areas = np.array(
            [netlist.cells[n].area_um2 for n in clock_names], dtype=np.float64
        )

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
        # Data-net index of each placer net; the other data nets keep the
        # default wire length 2.0 after placement.
        self.p_net_data = np.array(
            [self.net_index[name] for name in p_net_names], dtype=np.int64
        )

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
    """One job's whole dynamic state, as arrays over a design's index spaces.

    - ``variant`` ``(V,)``: each canonical cell's library variant, an index
      into ``design.table``; sizing moves rewrite it.
    - ``position`` ``(P, 2)``: placer-space (dict-order) cell positions,
      ``None`` until placement runs.
    - ``wire_length`` / ``wire_cap`` / ``wire_delay`` ``(N + 1,)``: per data
      net; the pad slot ``N`` stays 0.0.

    :meth:`refresh_cell_params` derives the per-cell library parameters
    (delay model, leakage, energy, area, input caps, weak flag) from
    ``variant`` with one gather each; it rebinds them, so a reference held
    from an earlier state stays a snapshot of that state.
    """

    def __init__(
        self,
        design: CompiledDesign,
        variant: np.ndarray,
        wire_length: np.ndarray,
        wire_cap: np.ndarray,
        wire_delay: np.ndarray,
        position: Optional[np.ndarray] = None,
    ) -> None:
        self.design = design
        self.variant = variant
        self.position = position
        self.wire_length = wire_length
        self.wire_cap = wire_cap
        self.wire_delay = wire_delay
        self.refresh_cell_params()

    @classmethod
    def from_netlist(cls, design: CompiledDesign, netlist: Netlist) -> "LaneState":
        """Gather a lane from ``netlist``'s objects (``design`` compiled
        from the same topology)."""
        cells = netlist.cells
        index = design.table.index
        variant = np.array(
            [index[cells[name].cell_type.name] for name in design.cell_names],
            dtype=np.int64,
        )
        nets = [netlist.nets[name] for name in design.net_names]

        def wire(attr: str) -> np.ndarray:
            return np.array([getattr(n, attr) for n in nets] + [0.0],
                            dtype=np.float64)

        points = [cells[name].position for name in design.p_names]
        position = (
            None if any(p is None for p in points)
            else np.array(points, dtype=np.float64).reshape(-1, 2)
        )
        return cls(design, variant, wire("wire_length_um"),
                   wire("wire_cap_ff"), wire("wire_delay_ps"), position)

    def copy(self) -> "LaneState":
        """An independent lane with equal values (no array is shared)."""
        return LaneState(
            self.design,
            self.variant.copy(),
            self.wire_length.copy(),
            self.wire_cap.copy(),
            self.wire_delay.copy(),
            None if self.position is None else self.position.copy(),
        )

    def write_to(self, netlist: Netlist) -> None:
        """Write positions, wire values and cell variants into ``netlist``,
        a pristine copy of this lane's design, exactly as the scalar stages
        leave them on their own netlist."""
        d = self.design
        cells = netlist.cells
        if self.position is not None:
            for name, xy in zip(d.p_names, self.position.tolist()):
                cells[name].position = tuple(xy)
        for name, length, cap, delay in zip(
            d.net_names, self.wire_length.tolist(), self.wire_cap.tolist(),
            self.wire_delay.tolist(),
        ):
            net = netlist.nets[name]
            net.wire_length_um = length
            net.wire_cap_ff = cap
            net.wire_delay_ps = delay
        types = d.table.types
        for name, k in zip(d.cell_names, self.variant.tolist()):
            cells[name].cell_type = types[k]

    # -- cell sizing state -------------------------------------------------
    def refresh_cell_params(self) -> None:
        """Re-gather per-cell library parameters from ``variant``."""
        d = self.design
        t = d.table
        v = self.variant
        self.intrinsic = t.intrinsic[v]
        self.drive_res = t.drive_res[v]
        self.leakage = t.leakage[v]
        self.energy = t.energy[v]
        self.area = t.area[v]
        self.is_weak = t.is_weak[v]
        cap_ext = np.zeros(d.E + 1, dtype=np.float64)
        cap_ext[: d.V] = t.input_cap[v]
        cap_ext[d.V:d.E] = d.clock_caps
        self.cap_ext = cap_ext

    # -- derived quantities -------------------------------------------------
    def loads(self) -> np.ndarray:
        """Per-cell output load, bit-identical to ``output_load_ff``."""
        d = self.design
        load = self.wire_cap[d.out_net]
        caps = self.cap_ext[d.sink_matrix]  # (V, maxF); pad column -> 0.0
        for k in range(caps.shape[1]):
            load = load + caps[:, k]
        return load

    def total_area(self) -> float:
        """``Netlist.total_cell_area_um2`` of this lane's sizing: the same
        ``sum`` over every cell in dict order."""
        area = np.concatenate([self.area, self.design.clock_areas])
        return float(sum(area[self.design.area_order].tolist()))


class DesignTemplate:
    """The read-only start of every stack on one (profile, netlist seed).

    Holds the :class:`CompiledDesign`, the default constraints, the
    topology-only PLACEMENT snapshot values (``placement_stats``, in the
    snapshot's key order) and the pristine lane.  A stack takes private
    copies of the pristine lane (:meth:`lanes`).  Every array of the
    design, its variant table and the pristine lane is read-only, so no
    run can mutate the template.
    """

    def __init__(self, netlist: Netlist, placement_stats: Dict[str, float]) -> None:
        self.design = CompiledDesign(netlist)
        self.constraints = default_constraints(netlist)
        self.placement_stats = placement_stats
        self.lane = LaneState.from_netlist(self.design, netlist)
        arrays = [*vars(self.design).values(), *vars(self.design.table).values(),
                  *vars(self.lane).values()]
        for level in self.design.levels:
            arrays.extend(level.values())
        for array in arrays:
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    def lanes(self, count: int) -> List[LaneState]:
        """``count`` independent pristine lanes."""
        return [self.lane.copy() for _ in range(count)]
