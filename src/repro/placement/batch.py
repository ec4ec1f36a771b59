"""Stacked force-directed placement over N lanes of one compiled design.

``place_batch`` places once per *distinct* :class:`PlacerParams`.  Lanes
whose placer settings have the same bits share the pristine lane and the
``derive_rng(seed, "placer", name)`` stream, so they would place
identically: such *twins* copy their representative's final positions,
wire values and result values, while each still gets its own position and
wire arrays and its own :class:`PlacementResult`.

The distinct settings run the scalar placer's iteration loop as *slots* of
one ``(U, n, 2)`` position stack, and every stage works on the whole stack
at once.  The elementwise force math (attraction step, spreading push,
annealing, clipping) is evaluated once for all slots.  Every scatter (net
centroids, cell targets, the density map, the RUDY difference array) is
one ``np.bincount`` over slot-offset flat indices with x and y interleaved.
``np.bincount`` sums each bin sequentially from 0.0 in index order, exactly
like the scalar placer's ``np.add.at``, so the stack reproduces the scalar
bits.  Per-net bounding boxes are one ``np.minimum.at`` /
``np.maximum.at`` over the same flat indices: the scalar ``_boxes_fast``
ops on a longer array, signed zeros included.

Slots are sorted by iteration budget, so the active slots are always a
prefix of the stack.  A slot whose budget is exhausted is *frozen*: left
out of every update rather than padded through the math, and the frozen
slot-iterations are reported as padding waste.  Legalization and row
snapping run per slot, consuming the slot's own RNG stream exactly where
the scalar placer would.  The final positions and the scalar
``_annotate_wirelengths`` values (Steiner length, wire cap and delay per
data net, default length 2.0 for nets outside the placer) are written into
the lane arrays with the same expressions, the total as a left fold.

Per-axis constants (bin pitch, last bin, die bounds, cell and net weights)
enter the loop as arrays of the operand's full shape: numpy runs a
trailing ``(2,)`` broadcast two elements per inner loop, while a
same-shape operand runs the whole array, with the same elementwise results.
"""

from __future__ import annotations

import copy
from dataclasses import astuple
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.compiled import CompiledDesign, LaneState
from repro.placement.congestion import (
    bin_supply,
    classify_congestion,
    congestion_summary,
)
from repro.placement.grid import PlacementGrid
from repro.placement.placer import (
    _CHECKPOINT_FRACTIONS,
    _CHECKPOINT_NAMES,
    PlacementResult,
    PlacerParams,
    _cluster_seeds,
    _initial_positions,
    _routing_supply_per_bin,
)
from repro.utils.rng import derive_rng

_RING_OFFSETS: Dict[int, list] = {}


def _ring_offsets(radius: int) -> list:
    """Chebyshev-ring offsets in the scalar scan order (dr outer, dc inner)."""
    cached = _RING_OFFSETS.get(radius)
    if cached is None:
        cached = [
            (dr, dc)
            for dr in range(-radius, radius + 1)
            for dc in range(-radius, radius + 1)
            if max(abs(dr), abs(dc)) == radius
        ]
        _RING_OFFSETS[radius] = cached
    return cached


def _nearest_slack_bin_fast(load, capacity, r, c, min_slack, bins_y, bins_x):
    """``placer._nearest_slack_bin`` over plain-Python rows: same bin, bit
    for bit (IEEE doubles either way), without per-element ndarray overhead.
    """
    for radius in range(1, max(bins_y, bins_x)):
        best = None
        best_slack = min_slack
        for dr, dc in _ring_offsets(radius):
            rr, cc = r + dr, c + dc
            if not (0 <= rr < bins_y and 0 <= cc < bins_x):
                continue
            slack = capacity[rr][cc] - load[rr][cc]
            if slack >= best_slack:
                best_slack = slack
                best = (rr, cc)
        if best is not None:
            return best
    return None


def _legalize_fast(positions, grid: PlacementGrid, areas, width, height, rng):
    """``placer._legalize`` with the spill bookkeeping on Python floats.

    Every spill decision, RNG draw and snap matches the scalar helper; the
    load/capacity grids are materialized to nested lists so the ring search
    and the drain loop run without ndarray scalar-indexing overhead.
    """
    positions = positions.copy()
    free = grid.bin_area_um2 * np.maximum(0.02, 1.0 - grid.blockage_fraction)
    capacity = free * 1.05
    cx, cy = grid.bin_centers()
    bins_y, bins_x = grid.bins_y, grid.bins_x
    cap_rows = capacity.tolist()
    area_list = areas.tolist()

    for _ in range(5):
        rows, cols = grid.bin_indices(positions[:, 0], positions[:, 1])
        load = np.zeros((bins_y, bins_x))
        np.add.at(load, (rows, cols), areas)
        if np.all(load <= capacity * 1.02):
            break
        load_rows = load.tolist()
        cells_in_bin: Dict = {}
        for index, (r, c) in enumerate(zip(rows.tolist(), cols.tolist())):
            cells_in_bin.setdefault((r, c), []).append(index)
        order = sorted(
            cells_in_bin,
            key=lambda rc: load_rows[rc[0]][rc[1]] - cap_rows[rc[0]][rc[1]],
            reverse=True,
        )
        for (r, c) in order:
            if load_rows[r][c] <= cap_rows[r][c]:
                continue
            movers = cells_in_bin[(r, c)]
            movers.sort(key=lambda i: area_list[i])  # pop() moves biggest first
            while load_rows[r][c] > cap_rows[r][c] and movers:
                cell = movers.pop()
                target = _nearest_slack_bin_fast(
                    load_rows, cap_rows, r, c, area_list[cell], bins_y, bins_x
                )
                if target is None:
                    break
                tr, tc = target
                load_rows[r][c] -= area_list[cell]
                load_rows[tr][tc] += area_list[cell]
                jitter = rng.normal(0.0, 0.2, size=2)
                positions[cell, 0] = cx[tr, tc] + jitter[0] * grid.bin_width_um
                positions[cell, 1] = cy[tr, tc] + jitter[1] * grid.bin_height_um
        positions = np.clip(positions, 0.0, [width, height])
    row_pitch = max(0.2, height / 200.0)
    rows, _ = grid.bin_indices(positions[:, 0], positions[:, 1])
    positions[:, 1] = np.round(positions[:, 1] / row_pitch) * row_pitch
    positions[:, 1] = np.clip(
        positions[:, 1],
        rows * grid.bin_height_um,
        (rows + 1) * grid.bin_height_um - 1e-9,
    )
    return np.clip(positions, 0.0, [width, height])


class _StackIndex:
    """Slot-offset flat indices of one design's placement stacks.

    Built once for ``slots`` slots.  The slot is the leading axis of every
    index array, so a stack of its first ``h`` slots uses a prefix.
    """

    def __init__(self, design: CompiledDesign, grid: PlacementGrid,
                 slots: int, supply_um_per_bin: float) -> None:
        self.cells = len(design.p_names)
        self.nets = len(design.p_net_sizes)
        self.pins = 2 * len(design.pin_cell)  # flat (pin, dim) entries
        slot = np.arange(slots)[:, None, None]
        dim = np.arange(2)
        # (slot, pin, dim) -> flat (slot, cell, dim) / (slot, net, dim).
        self.pin_cell = (
            (slot * self.cells + design.pin_cell[:, None]) * 2 + dim
        ).ravel()
        self.pin_net = (
            (slot * self.nets + design.pin_net[:, None]) * 2 + dim
        ).ravel()
        self.steiner = 1.0 + 0.18 * np.log2(
            np.maximum(2, design.p_net_sizes) / 2.0
        )
        self.areas = np.tile(design.p_area, slots)
        self.pitch = np.array([grid.bin_width_um, grid.bin_height_um])
        self.last_bin = np.array([grid.bins_x - 1, grid.bins_y - 1])
        self.bins_x, self.bins_y = grid.bins_x, grid.bins_y
        self.bin_offset = np.arange(slots)[:, None] * (self.bins_y * self.bins_x)
        self.diff_width = self.bins_x + 1
        self.diff_offset = (
            np.arange(slots)[:, None] * ((self.bins_y + 1) * self.diff_width)
        )
        self.supply = bin_supply(grid, supply_um_per_bin)
        # Hoisted from ``grid.density_of``: constant over the whole loop.
        self.free_area = grid.free_area()
        self.blockage_bump = grid.blockage_bump()
        self._tables: Dict[Tuple[str, tuple], np.ndarray] = {}

    def _full(self, name: str, like: np.ndarray) -> np.ndarray:
        """The ``(2,)`` pair ``self.<name>`` spread to ``like``'s shape.

        Sized from the operand, not the design: a cached table per trailing
        shape, rebuilt when a taller operand arrives, serves a row prefix.
        """
        key = (name, like.shape[1:])
        table = self._tables.get(key)
        if table is None or len(table) < len(like):
            table = np.broadcast_to(getattr(self, name), like.shape).copy()
            self._tables[key] = table
        return table[: len(like)]

    def pin_xy(self, positions: np.ndarray) -> np.ndarray:
        """Flat (slot, pin, dim) coordinates of a contiguous stack."""
        h = len(positions)
        return positions.reshape(-1).take(self.pin_cell[: h * self.pins])

    def to_nets(self, h: int, values: np.ndarray) -> np.ndarray:
        """Sum flat (slot, pin, dim) values per net: ``(h, nets, 2)``."""
        return np.bincount(
            self.pin_net[: h * self.pins], weights=values,
            minlength=h * self.nets * 2,
        ).reshape(h, self.nets, 2)

    def to_cells(self, h: int, values: np.ndarray) -> np.ndarray:
        """Sum flat (slot, pin, dim) values per cell: ``(h, cells, 2)``."""
        return np.bincount(
            self.pin_cell[: h * self.pins], weights=values,
            minlength=h * self.cells * 2,
        ).reshape(h, self.cells, 2)

    def at_pins(self, per_net: np.ndarray) -> np.ndarray:
        """Gather a contiguous ``(h, nets, 2)`` array at every pin."""
        h = len(per_net)
        return per_net.reshape(-1).take(self.pin_net[: h * self.pins])

    def boxes(self, h: int, pin_xy: np.ndarray):
        """Per-net ``(lo, hi)`` corners, ``(h, nets, 2)`` each, and the
        Steiner-corrected lengths ``(h, nets)`` (``placer._boxes_fast``)."""
        index = self.pin_net[: h * self.pins]
        lo = np.full(h * self.nets * 2, np.inf)
        hi = np.full(h * self.nets * 2, -np.inf)
        np.minimum.at(lo, index, pin_xy)
        np.maximum.at(hi, index, pin_xy)
        lo = lo.reshape(h, self.nets, 2)
        hi = hi.reshape(h, self.nets, 2)
        hpwl = (hi[..., 0] - lo[..., 0]) + (hi[..., 1] - lo[..., 1])
        return lo, hi, hpwl * self.steiner

    def bin_xy(self, xy: np.ndarray) -> np.ndarray:
        """``grid.bin_indices`` of an ``(..., 2)`` array: (col, row) pairs."""
        cell = (xy / self._full("pitch", xy)).astype(np.int64)
        np.maximum(cell, 0, out=cell)
        return np.minimum(cell, self._full("last_bin", xy), out=cell)

    def bins(self, xy: np.ndarray) -> np.ndarray:
        """Flat ``row * bins_x + col`` bin of each point of ``(h, n, 2)``."""
        cell = self.bin_xy(xy)
        return cell[..., 1] * self.bins_x + cell[..., 0]

    def density(self, positions: np.ndarray) -> np.ndarray:
        """``grid.density_of(self.used_area(positions))`` with its free
        area and blockage bump hoisted out of the loop."""
        return self.used_area(positions) / self.free_area + self.blockage_bump

    def used_area(self, positions: np.ndarray) -> np.ndarray:
        """Cell area per bin of a contiguous stack: ``(h, bins_y, bins_x)``."""
        h = len(positions)
        flat = (self.bins(positions) + self.bin_offset[:h]).ravel()
        return np.bincount(
            flat, weights=self.areas[: h * self.cells],
            minlength=h * self.bins_y * self.bins_x,
        ).reshape(h, self.bins_y, self.bins_x)

    def rudy(self, lo: np.ndarray, hi: np.ndarray,
             lengths: np.ndarray) -> np.ndarray:
        """``rudy_map_fast`` of every slot: ``(h, bins_y, bins_x)``.

        The four corner scatters go into one difference array per slot in
        the scalar order (all top-left corners, then top-right, bottom-left
        and bottom-right), so each bin sums its terms in the same sequence.
        """
        h = len(lengths)
        c0, r0 = np.moveaxis(self.bin_xy(lo), -1, 0)
        c1, r1 = np.moveaxis(self.bin_xy(hi), -1, 0)
        span = (r1 - r0 + 1) * (c1 - c0 + 1)
        value = np.where(lengths > 0, lengths / span, 0.0)
        top, bottom = r0 * self.diff_width, (r1 + 1) * self.diff_width
        index = np.concatenate(
            [top + c0, top + c1 + 1, bottom + c0, bottom + c1 + 1], axis=1
        ) + self.diff_offset[:h]
        weights = np.concatenate([value, -value, -value, value], axis=1)
        diff = np.bincount(
            index.ravel(), weights=weights.ravel(),
            minlength=h * (self.bins_y + 1) * self.diff_width,
        ).reshape(h, self.bins_y + 1, self.diff_width)
        demand = diff.cumsum(axis=1).cumsum(axis=2)[:, : self.bins_y, : self.bins_x]
        return demand / self.supply


def _unit_gradient(f: np.ndarray, axis: int) -> np.ndarray:
    """``np.gradient(f, axis=axis)`` at unit spacing, written as slices:
    the same central differences inside and one-sided edges (numpy divides
    the edges by 1.0, which is exact), without its per-call overhead."""
    lead = (slice(None),) * axis
    out = np.empty_like(f)
    inner = out[lead + (slice(1, -1),)]
    np.subtract(f[lead + (slice(2, None),)], f[lead + (slice(None, -2),)], out=inner)
    inner /= 2.0
    np.subtract(f[lead + (1,)], f[lead + (0,)], out=out[lead + (0,)])
    np.subtract(f[lead + (-1,)], f[lead + (-2,)], out=out[lead + (-1,)])
    return out


def _iterations(params: PlacerParams) -> int:
    """The scalar placer's iteration budget for ``params``."""
    return max(8, int(round(36 * params.effort)))


def _placer_slots(
    params_list: Sequence[PlacerParams],
) -> Tuple[List[PlacerParams], List[int]]:
    """Distinct placer settings, longest iteration budget first (stable),
    and each lane's slot among them.

    Settings are keyed on the ``repr`` of their field tuple, so lanes merge
    only when every field has the same bits: ``0.0`` and ``-0.0`` never do.
    """
    keys = [repr(astuple(params)) for params in params_list]
    distinct: Dict[str, PlacerParams] = {}
    for key, params in zip(keys, params_list):
        distinct.setdefault(key, params)
    order = sorted(distinct, key=lambda key: -_iterations(distinct[key]))
    slot_of = {key: slot for slot, key in enumerate(order)}
    return [distinct[key] for key in order], [slot_of[key] for key in keys]


def place_batch(
    design: CompiledDesign,
    lanes: Sequence[LaneState],
    params_list: Sequence[PlacerParams],
    seed: int = 0,
    stats: Optional[Dict[str, int]] = None,
) -> List[PlacementResult]:
    """Place every lane; one :class:`PlacementResult` each.

    Every lane must be a pristine lane of ``design``; placement sets its
    ``position`` and wire arrays.  ``stats`` accumulates
    ``placement_twins`` (lanes that copied a twin's placement) and the
    ``lane_steps`` / ``frozen_steps`` of the placed slots.
    """
    n = len(design.p_names)
    width, height = design.die_width_um, design.die_height_um
    target_bins = int(np.clip(np.sqrt(n) / 2.2, 4, 16))
    grid = PlacementGrid.for_die(width, height, design.blockages, target_bins)
    areas = design.p_area

    params, lane_slot = _placer_slots(params_list)
    U = len(params)
    iters = [_iterations(p) for p in params]
    if stats is not None:
        stats["placement_twins"] = (
            stats.get("placement_twins", 0) + len(lanes) - U
        )
        stats["lane_steps"] = stats.get("lane_steps", 0) + sum(iters)
        stats["frozen_steps"] = (
            stats.get("frozen_steps", 0) + U * iters[0] - sum(iters)
        )
    checkpoints = [
        [max(1, int(round(f * budget))) for f in _CHECKPOINT_FRACTIONS]
        for budget in iters
    ]
    marks: List[Dict[str, Dict[str, float]]] = [{} for _ in range(U)]
    levels: List[Dict[str, str]] = [{} for _ in range(U)]

    ix = _StackIndex(design, grid, U, _routing_supply_per_bin(design, grid))
    rng = derive_rng(seed, "placer", design.name)
    cluster_seeds = _cluster_seeds(design.p_cluster, design)
    start = _initial_positions(cluster_seeds, design, rng)
    rngs = [copy.deepcopy(rng) for _ in range(U)]
    positions = np.repeat(start[None], U, axis=0)

    net_weights = (
        1.0 + np.array([p.timing_net_weight for p in params])[:, None]
        * design.p_net_crit
    ) / np.sqrt(design.p_net_sizes - 1)
    pin_weights = net_weights[:, design.pin_net]  # (U, pins)
    cell_weight_sums = np.bincount(
        (np.arange(U)[:, None] * n + design.pin_cell).ravel(),
        weights=pin_weights.ravel(), minlength=U * n,
    ).reshape(U, n)
    cell_weight_sums = np.repeat(
        np.maximum(cell_weight_sums, 1e-9)[:, :, None], 2, axis=2
    )
    pin_weights = np.repeat(pin_weights, 2, axis=1).ravel()  # x, y interleaved
    inv_net_sizes = np.repeat(
        (1.0 / np.maximum(1, design.p_net_sizes))[:, None], 2, axis=1
    )
    density_targets = np.array([p.density_target for p in params])[:, None, None]
    spreads = np.array([p.spread_strength for p in params])[:, None, None]

    if design.blockages:
        blk_gy, blk_gx = np.gradient(grid.blockage_fraction)
        blk_gx, blk_gy = blk_gx.ravel(), blk_gy.ravel()
    cong_field = np.zeros((U, grid.bins_y, grid.bins_x))
    bounds = np.broadcast_to(np.array([width, height]), positions.shape).copy()
    k = U
    for iteration in range(1, iters[0] + 1):
        while iters[k - 1] < iteration:
            k -= 1
        sub = positions[:k]
        progress = [iteration / iters[s] for s in range(k)]
        prog = np.array(progress)[:, None, None]

        # --- wirelength attraction: move toward weighted net centroids.
        pin_xy = ix.pin_xy(sub)
        centroids = ix.to_nets(k, pin_xy)
        centroids *= inv_net_sizes
        target = ix.to_cells(
            k, ix.at_pins(centroids) * pin_weights[: k * ix.pins]
        )
        target /= cell_weight_sums[:k]
        step = 0.55 * (1.0 - 0.5 * prog)
        new_positions = sub + step * (target - sub)

        # --- cluster attraction, on the slots still inside its window.
        gains = np.array([
            p.cluster_attraction * max(0.0, 1.0 - 2.5 * fraction)
            for p, fraction in zip(params, progress)
        ])
        pulled = np.flatnonzero(gains > 0.0)
        if pulled.size:
            new_positions[pulled] += gains[pulled, None, None] * 0.3 * (
                cluster_seeds - new_positions[pulled]
            )

        # --- density spreading plus the refreshed congestion field.
        density = ix.density(sub)
        overflow = np.maximum(0.0, density - density_targets[:k])
        if iteration % 5 == 0 or iteration == 1:
            rudy = ix.rudy(*ix.boxes(k, pin_xy))
            cong_field[:k] = np.maximum(0.0, rudy - 0.8)
        overflow = overflow + spreads[:k] * 0.5 * cong_field[:k]
        gy, gx = _unit_gradient(overflow, 1), _unit_gradient(overflow, 2)
        bins = ix.bins(new_positions)
        flat_bins = bins + ix.bin_offset[:k]
        push = spreads[:k, :, 0] * (0.5 + prog[:, :, 0])
        new_positions[:, :, 0] -= (
            push * gx.reshape(-1).take(flat_bins) * grid.bin_width_um
        )
        new_positions[:, :, 1] -= (
            push * gy.reshape(-1).take(flat_bins) * grid.bin_height_um
        )
        if design.blockages:
            new_positions[:, :, 0] -= 2.0 * blk_gx.take(bins) * grid.bin_width_um
            new_positions[:, :, 1] -= 2.0 * blk_gy.take(bins) * grid.bin_height_um

        # --- annealed perturbation, each slot from its own stream.
        for s in range(k):
            temperature = (
                params[s].perturbation * 0.02 * width * (1.0 - progress[s]) ** 2
            )
            if temperature > 0.0:
                new_positions[s] += rngs[s].normal(0.0, temperature, size=(n, 2))

        positions[:k] = np.clip(new_positions, 0.0, bounds[:k])

        hit = [s for s in range(k) if iteration in checkpoints[s]]
        if hit:
            rudy = ix.rudy(*ix.boxes(len(hit), ix.pin_xy(positions[hit])))
            for j, s in enumerate(hit):
                name = _CHECKPOINT_NAMES[checkpoints[s].index(iteration)]
                marks[s][name] = congestion_summary(rudy[j])
                levels[s][name] = classify_congestion(marks[s][name]["peak"])

    final = np.stack([
        _legalize_fast(positions[s], grid, areas, width, height, rngs[s])
        for s in range(U)
    ])
    lo, hi, lengths = ix.boxes(U, ix.pin_xy(final))
    rudy = ix.rudy(lo, hi, lengths)
    density = grid.density_of(ix.used_area(final), blockage_penalty=False)
    final_congestion = [congestion_summary(rudy[s]) for s in range(U)]
    for s in range(U):
        levels[s]["final"] = classify_congestion(final_congestion[s]["peak"])

    wires = [_annotated_wires(design, lengths[s]) for s in range(U)]
    results = []
    for lane, s in zip(lanes, lane_slot):
        wire_length, wire_cap, wire_delay, total = wires[s]
        lane.position = final[s].copy()
        lane.wire_length = wire_length.copy()
        lane.wire_cap = wire_cap.copy()
        lane.wire_delay = wire_delay.copy()
        results.append(PlacementResult(
            grid=grid,
            total_hpwl_um=total,
            peak_density=float(density[s].max()),
            congestion_checkpoints={
                name: dict(snapshot) for name, snapshot in marks[s].items()
            },
            congestion_levels=dict(levels[s]),
            final_congestion=dict(final_congestion[s]),
            iterations_run=iters[s],
        ))
    return results


def _annotated_wires(design: CompiledDesign, lengths: np.ndarray):
    """``placer._annotate_wirelengths`` on arrays: wire length, cap and
    delay per data net (pad slot 0.0) and the total length.

    Nets outside the placer keep the default length 2.0.  The delay keeps
    the scalar ``x ** 2`` (libm ``pow``, which differs from ``x * x`` in
    the last bit now and then) and the total is the scalar left fold.
    """
    node = design.library.node
    wire_length = np.zeros(design.N + 1)
    wire_length[: design.N] = 2.0
    wire_length[design.p_net_data] = lengths
    wire_cap = wire_length * node.wire_cap_ff_per_um
    k = 0.5 * node.wire_res_ohm_per_um * node.wire_cap_ff_per_um
    wire_delay = np.array(
        [k * length ** 2 / 1000.0 for length in wire_length.tolist()]
    )
    total = float(np.cumsum(wire_length[: design.N])[-1]) if design.N else 0.0
    return wire_length, wire_cap, wire_delay, total
