"""Force-directed global placement with density spreading and legalization.

The algorithm alternates wirelength attraction (cells move toward the
centroid of their nets) with density spreading (cells flow down the gradient
of the bin-density map) and blockage repulsion, annealing noise as it goes —
the classic analytic-placement force balance, reduced to its essentials so a
full placement of ~2,000 cells takes a few milliseconds.

Checkpoints at fixed progress fractions record congestion snapshots; those
snapshots are the raw material of the "congestion level during placement
step X" insights (paper Table I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.placement.congestion import (
    classify_congestion,
    congestion_summary,
    rudy_map_fast,
)
from repro.placement.grid import PlacementGrid
from repro.utils.rng import derive_rng

_CHECKPOINT_FRACTIONS = (0.25, 0.60, 1.00)
_CHECKPOINT_NAMES = ("early", "mid", "late")


@dataclass(frozen=True)
class PlacerParams:
    """Tunable placement knobs (the levers recipes move).

    Attributes:
        effort: Iteration budget multiplier; > 1 refines further.
        spread_strength: Density-spreading force gain.  Higher relieves
            congestion at some wirelength cost.
        timing_net_weight: Extra attraction on timing-critical (deep-level)
            nets; shortens critical paths but bunches cells.
        cluster_attraction: Pull toward logical-cluster seeds early in the
            schedule; improves locality, can worsen hotspots.
        density_target: Bin density above which spreading kicks in.
        perturbation: Annealed random jitter; escapes local minima but adds
            variance.
    """

    effort: float = 1.0
    spread_strength: float = 1.0
    timing_net_weight: float = 0.5
    cluster_attraction: float = 0.6
    density_target: float = 0.9
    perturbation: float = 1.0


@dataclass
class PlacementResult:
    """Placement outputs consumed by later stages and by insight analyzers."""

    grid: PlacementGrid
    total_hpwl_um: float
    peak_density: float
    congestion_checkpoints: Dict[str, Dict[str, float]] = field(default_factory=dict)
    congestion_levels: Dict[str, str] = field(default_factory=dict)
    final_congestion: Dict[str, float] = field(default_factory=dict)
    iterations_run: int = 0

    @property
    def peak_congestion(self) -> float:
        return self.final_congestion.get("peak", 0.0)


def place(netlist: Netlist, params: PlacerParams, seed: int = 0) -> PlacementResult:
    """Place ``netlist`` in-place and return placement statistics."""
    rng = derive_rng(seed, "placer", netlist.name)
    cells = [c for c in netlist.cells.values() if not c.is_clock_cell]
    names = [c.name for c in cells]
    index_of = {name: i for i, name in enumerate(names)}
    n = len(cells)
    width, height = netlist.die_width_um, netlist.die_height_um
    # Grid resolution scales with design size so a bin always holds several
    # cells — a bin smaller than one flop could never legalize.
    target_bins = int(np.clip(np.sqrt(n) / 2.2, 4, 16))
    grid = PlacementGrid.for_die(width, height, netlist.blockages, target_bins)
    areas = np.array([c.area_um2 for c in cells])

    cluster_seeds = _cluster_seeds([c.cluster for c in cells], netlist)
    positions = _initial_positions(cluster_seeds, netlist, rng)

    pin_cell, pin_net, net_sizes, net_weights, net_names = _build_connectivity(
        netlist, index_of, params
    )
    n_nets = len(net_sizes)
    inv_net_sizes = 1.0 / np.maximum(1, net_sizes)
    steiner_factor = 1.0 + 0.18 * np.log2(np.maximum(2, net_sizes) / 2.0)

    iterations = max(8, int(round(36 * params.effort)))
    checkpoints = [max(1, int(round(f * iterations))) for f in _CHECKPOINT_FRACTIONS]
    result = PlacementResult(grid=grid, total_hpwl_um=0.0, peak_density=0.0)

    supply = _routing_supply_per_bin(netlist, grid)
    cell_weight_sums = np.zeros(n)
    np.add.at(cell_weight_sums, pin_cell, net_weights[pin_net])
    cell_weight_sums = np.maximum(cell_weight_sums, 1e-9)

    for iteration in range(1, iterations + 1):
        progress = iteration / iterations
        # --- wirelength attraction: move toward weighted net centroids.
        centroids = np.zeros((n_nets, 2))
        np.add.at(centroids, pin_net, positions[pin_cell])
        centroids *= inv_net_sizes[:, None]
        target = np.zeros((n, 2))
        np.add.at(target, pin_cell, centroids[pin_net] * net_weights[pin_net, None])
        target /= cell_weight_sums[:, None]

        step = 0.55 * (1.0 - 0.5 * progress)
        new_positions = positions + step * (target - positions)

        # --- cluster attraction, annealed away after the first third.
        cluster_gain = params.cluster_attraction * max(0.0, 1.0 - 2.5 * progress)
        if cluster_gain > 0.0:
            new_positions += cluster_gain * 0.3 * (cluster_seeds - new_positions)

        # --- density spreading: descend the smoothed density gradient.
        density = grid.density_map(positions[:, 0], positions[:, 1], areas)
        overflow = np.maximum(0.0, density - params.density_target)
        # Routing-congestion field, refreshed every few iterations and applied
        # persistently, so spread_strength relieves *routing* hotspots too.
        if iteration % 5 == 0 or iteration == 1:
            boxes, lengths = _boxes_fast(positions, pin_cell, pin_net, n_nets, steiner_factor)
            rudy = rudy_map_fast(grid, boxes, lengths, supply)
            cong_field = np.maximum(0.0, rudy - 0.8)
        overflow = overflow + params.spread_strength * 0.5 * cong_field
        gy, gx = np.gradient(overflow)
        rows, cols = grid.bin_indices(new_positions[:, 0], new_positions[:, 1])
        push = params.spread_strength * (0.5 + progress)
        new_positions[:, 0] -= push * gx[rows, cols] * grid.bin_width_um
        new_positions[:, 1] -= push * gy[rows, cols] * grid.bin_height_um

        # --- blockage repulsion.
        if netlist.blockages:
            by, bx = np.gradient(grid.blockage_fraction)
            new_positions[:, 0] -= 2.0 * bx[rows, cols] * grid.bin_width_um
            new_positions[:, 1] -= 2.0 * by[rows, cols] * grid.bin_height_um

        # --- annealed perturbation.
        temperature = params.perturbation * 0.02 * width * (1.0 - progress) ** 2
        if temperature > 0.0:
            new_positions += rng.normal(0.0, temperature, size=(n, 2))

        positions = np.clip(new_positions, 0.0, [width, height])

        if iteration in checkpoints:
            name = _CHECKPOINT_NAMES[checkpoints.index(iteration)]
            boxes, lengths = _boxes_fast(positions, pin_cell, pin_net, n_nets, steiner_factor)
            snapshot = congestion_summary(rudy_map_fast(grid, boxes, lengths, supply))
            result.congestion_checkpoints[name] = snapshot
            result.congestion_levels[name] = classify_congestion(snapshot["peak"])

    positions = _legalize(positions, grid, areas, width, height, rng)
    for cell, xy in zip(cells, positions):
        cell.position = (float(xy[0]), float(xy[1]))

    result.iterations_run = iterations
    boxes, lengths = _boxes_fast(positions, pin_cell, pin_net, n_nets, steiner_factor)
    result.total_hpwl_um = _annotate_wirelengths(netlist, net_names, lengths)
    density = grid.density_map(
        positions[:, 0], positions[:, 1], areas, blockage_penalty=False
    )
    result.peak_density = float(density.max())
    result.final_congestion = congestion_summary(
        rudy_map_fast(grid, boxes, lengths, supply)
    )
    result.congestion_levels["final"] = classify_congestion(
        result.final_congestion["peak"]
    )
    return result


def _boxes_fast(
    positions: np.ndarray,
    pin_cell: np.ndarray,
    pin_net: np.ndarray,
    n_nets: int,
    steiner_factor: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized per-net bounding boxes + Steiner-corrected lengths."""
    xs = positions[pin_cell, 0]
    ys = positions[pin_cell, 1]
    xmin = np.full(n_nets, np.inf)
    ymin = np.full(n_nets, np.inf)
    xmax = np.full(n_nets, -np.inf)
    ymax = np.full(n_nets, -np.inf)
    np.minimum.at(xmin, pin_net, xs)
    np.minimum.at(ymin, pin_net, ys)
    np.maximum.at(xmax, pin_net, xs)
    np.maximum.at(ymax, pin_net, ys)
    boxes = np.column_stack([xmin, ymin, xmax, ymax])
    hpwl = (xmax - xmin) + (ymax - ymin)
    return boxes, hpwl * steiner_factor


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _initial_positions(seeds: np.ndarray, die, rng) -> np.ndarray:
    """Scatter cells near their cluster seed to start from a sane topology.

    ``die`` is anything with ``die_width_um`` / ``die_height_um`` (a
    netlist or its compiled design).
    """
    width, height = die.die_width_um, die.die_height_um
    positions = seeds.copy()
    positions += rng.normal(0.0, 0.08 * width, size=positions.shape)
    return np.clip(positions, 0.0, [width, height])


def _cluster_seeds(clusters, die) -> np.ndarray:
    """Each cell's cluster seed (``clusters`` in cell order): cluster
    centers on a square grid over ``die``."""
    width, height = die.die_width_um, die.die_height_um
    clusters = np.array(clusters)
    unique = np.unique(clusters)
    grid_side = int(np.ceil(np.sqrt(len(unique))))
    seeds = {}
    for rank, cluster in enumerate(unique):
        gx, gy = rank % grid_side, rank // grid_side
        seeds[cluster] = (
            (gx + 0.5) / grid_side * width,
            (gy + 0.5) / grid_side * height,
        )
    return np.array([seeds[c] for c in clusters], dtype=np.float64)


def _build_connectivity(
    netlist: Netlist, index_of: Dict[str, int], params: PlacerParams
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[str]]:
    """Flatten net membership to (pin_cell, pin_net) arrays with net weights."""
    pin_cell: List[int] = []
    pin_net: List[int] = []
    net_sizes: List[int] = []
    net_weights: List[float] = []
    net_names: List[str] = []
    max_level = max((c.level for c in netlist.cells.values()), default=1) or 1
    net_index = 0
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        members = []
        if net.driver is not None and net.driver in index_of:
            members.append(index_of[net.driver])
        for sink, pin in net.sinks:
            if pin >= 0 and sink in index_of:
                members.append(index_of[sink])
        if len(members) < 2:
            continue
        driver_level = (
            netlist.cells[net.driver].level if net.driver in netlist.cells else 0
        )
        criticality = driver_level / max_level
        weight = (1.0 + params.timing_net_weight * criticality) / np.sqrt(len(members) - 1)
        for member in members:
            pin_cell.append(member)
            pin_net.append(net_index)
        net_sizes.append(len(members))
        net_weights.append(weight)
        net_names.append(net.name)
        net_index += 1
    return (
        np.asarray(pin_cell, dtype=np.int64),
        np.asarray(pin_net, dtype=np.int64),
        np.asarray(net_sizes, dtype=np.int64),
        np.asarray(net_weights, dtype=np.float64),
        net_names,
    )


def _routing_supply_per_bin(netlist: Netlist, grid: PlacementGrid) -> float:
    """Track-length supply per bin from the node's routing pitch.

    Assumes ~6 usable routing layers; the global router shares this model.
    """
    pitch = netlist.library.node.track_pitch_um
    tracks_per_layer = grid.bin_width_um / pitch
    usable_layers = 6.0
    return tracks_per_layer * usable_layers * grid.bin_height_um * 0.5


def _legalize(positions, grid: PlacementGrid, areas, width, height, rng) -> np.ndarray:
    """Spill cells out of over-capacity bins into the nearest bins with slack.

    A gradient step cannot empty the hottest bin (the gradient vanishes at a
    local maximum), so legalization explicitly moves surplus cells, nearest
    slack bin first.
    """
    positions = positions.copy()
    free = grid.bin_area_um2 * np.maximum(0.02, 1.0 - grid.blockage_fraction)
    capacity = free * 1.05
    cx, cy = grid.bin_centers()

    for _ in range(5):
        rows, cols = grid.bin_indices(positions[:, 0], positions[:, 1])
        load = np.zeros((grid.bins_y, grid.bins_x))
        np.add.at(load, (rows, cols), areas)
        if np.all(load <= capacity * 1.02):
            break
        cells_in_bin: Dict[Tuple[int, int], List[int]] = {}
        for index, (r, c) in enumerate(zip(rows, cols)):
            cells_in_bin.setdefault((int(r), int(c)), []).append(index)
        order = sorted(
            cells_in_bin,
            key=lambda rc: load[rc] - capacity[rc],
            reverse=True,
        )
        for (r, c) in order:
            if load[r, c] <= capacity[r, c]:
                continue
            movers = cells_in_bin[(r, c)]
            movers.sort(key=lambda i: areas[i])  # pop() moves biggest first
            while load[r, c] > capacity[r, c] and movers:
                cell = movers.pop()
                # Only spill into a bin that can actually absorb the cell,
                # otherwise the move just relocates the overflow.
                target = _nearest_slack_bin(load, capacity, r, c, areas[cell])
                if target is None:
                    break
                tr, tc = target
                load[r, c] -= areas[cell]
                load[tr, tc] += areas[cell]
                jitter = rng.normal(0.0, 0.2, size=2)
                positions[cell, 0] = cx[tr, tc] + jitter[0] * grid.bin_width_um
                positions[cell, 1] = cy[tr, tc] + jitter[1] * grid.bin_height_um
        positions = np.clip(positions, 0.0, [width, height])
    # Snap to site rows (pitch scaled to keep ~200 rows on any die).  The
    # snap is clamped to each cell's legalized bin: rounding can carry a
    # boundary cell across a bin edge, silently re-filling a bin (e.g. a
    # fully-blocked one) the spill loop just emptied.
    row_pitch = max(0.2, height / 200.0)
    rows, _ = grid.bin_indices(positions[:, 0], positions[:, 1])
    positions[:, 1] = np.round(positions[:, 1] / row_pitch) * row_pitch
    positions[:, 1] = np.clip(
        positions[:, 1],
        rows * grid.bin_height_um,
        (rows + 1) * grid.bin_height_um - 1e-9,
    )
    return np.clip(positions, 0.0, [width, height])


def _nearest_slack_bin(load, capacity, r, c, min_slack):
    """Closest bin (ring search) with at least ``min_slack`` free capacity."""
    bins_y, bins_x = load.shape
    for radius in range(1, max(bins_y, bins_x)):
        best = None
        best_slack = min_slack
        for dr in range(-radius, radius + 1):
            for dc in range(-radius, radius + 1):
                if max(abs(dr), abs(dc)) != radius:
                    continue
                rr, cc = r + dr, c + dc
                if not (0 <= rr < bins_y and 0 <= cc < bins_x):
                    continue
                slack = capacity[rr, cc] - load[rr, cc]
                if slack >= best_slack:
                    best_slack = slack
                    best = (rr, cc)
        if best is not None:
            return best
    return None


def _annotate_wirelengths(
    netlist: Netlist, net_names: List[str], lengths: np.ndarray
) -> float:
    """Write Steiner-corrected wire lengths / RC onto nets; return total."""
    node = netlist.library.node
    length_of = dict(zip(net_names, lengths))
    total = 0.0
    for net in netlist.nets.values():
        if net.is_clock:
            continue
        net.wire_length_um = float(length_of.get(net.name, 2.0))
        total += net.wire_length_um
        net.wire_cap_ff = net.wire_length_um * node.wire_cap_ff_per_um
        net.wire_delay_ps = (
            0.5 * node.wire_res_ohm_per_um * node.wire_cap_ff_per_um
            * net.wire_length_um ** 2 / 1000.0
        )
    return total
