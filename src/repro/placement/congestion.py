"""Routing-demand estimation (RUDY) over the placement grid.

RUDY (Rectangular Uniform wire DensitY) spreads each net's estimated
wirelength uniformly over its bounding box; dividing by per-bin routing
supply gives a congestion ratio where > 1.0 means demand exceeds capacity.
This is the signal both the placer's congestion-driven spreading and the
Table-I "congestion level during placement step X" insight consume.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.placement.grid import PlacementGrid


def net_bounding_boxes(
    net_pins: Sequence[np.ndarray],
) -> np.ndarray:
    """Per-net bounding boxes as rows ``(xmin, ymin, xmax, ymax)``."""
    boxes = np.empty((len(net_pins), 4))
    for index, pins in enumerate(net_pins):
        boxes[index, 0] = pins[:, 0].min()
        boxes[index, 1] = pins[:, 1].min()
        boxes[index, 2] = pins[:, 0].max()
        boxes[index, 3] = pins[:, 1].max()
    return boxes


def rudy_map(
    grid: PlacementGrid,
    boxes: np.ndarray,
    wirelengths_um: np.ndarray,
    supply_um_per_bin: float,
) -> np.ndarray:
    """RUDY congestion ratio per bin.

    Args:
        grid: Placement grid.
        boxes: ``(n_nets, 4)`` bounding boxes.
        wirelengths_um: Estimated wirelength per net (HPWL-based).
        supply_um_per_bin: Routing supply (track-length) per bin; shrunk by
            blockages.

    Returns:
        ``(bins_y, bins_x)`` demand/supply ratio.
    """
    demand = np.zeros((grid.bins_y, grid.bins_x))
    bw, bh = grid.bin_width_um, grid.bin_height_um
    for (xmin, ymin, xmax, ymax), length in zip(boxes, wirelengths_um):
        if length <= 0.0:
            continue
        c0 = int(np.clip(xmin / bw, 0, grid.bins_x - 1))
        c1 = int(np.clip(xmax / bw, 0, grid.bins_x - 1))
        r0 = int(np.clip(ymin / bh, 0, grid.bins_y - 1))
        r1 = int(np.clip(ymax / bh, 0, grid.bins_y - 1))
        span = (r1 - r0 + 1) * (c1 - c0 + 1)
        demand[r0:r1 + 1, c0:c1 + 1] += length / span
    return demand / bin_supply(grid, supply_um_per_bin)


def rudy_map_fast(
    grid: PlacementGrid,
    boxes: np.ndarray,
    wirelengths_um: np.ndarray,
    supply_um_per_bin: float,
) -> np.ndarray:
    """Vectorized RUDY via a 2-D difference array (O(nets + bins^2)).

    Equivalent to :func:`rudy_map` but without the per-net Python loop; used
    in the placer's inner loop.
    """
    if len(boxes) == 0:
        return np.zeros((grid.bins_y, grid.bins_x)) / bin_supply(grid, supply_um_per_bin)
    bw, bh = grid.bin_width_um, grid.bin_height_um
    c0 = np.clip((boxes[:, 0] / bw).astype(np.int64), 0, grid.bins_x - 1)
    c1 = np.clip((boxes[:, 2] / bw).astype(np.int64), 0, grid.bins_x - 1)
    r0 = np.clip((boxes[:, 1] / bh).astype(np.int64), 0, grid.bins_y - 1)
    r1 = np.clip((boxes[:, 3] / bh).astype(np.int64), 0, grid.bins_y - 1)
    span = (r1 - r0 + 1) * (c1 - c0 + 1)
    value = np.where(wirelengths_um > 0, wirelengths_um / span, 0.0)
    diff = np.zeros((grid.bins_y + 1, grid.bins_x + 1))
    np.add.at(diff, (r0, c0), value)
    np.add.at(diff, (r0, c1 + 1), -value)
    np.add.at(diff, (r1 + 1, c0), -value)
    np.add.at(diff, (r1 + 1, c1 + 1), value)
    demand = diff.cumsum(axis=0).cumsum(axis=1)[: grid.bins_y, : grid.bins_x]
    return demand / bin_supply(grid, supply_um_per_bin)


def bin_supply(grid: PlacementGrid, supply_um_per_bin: float) -> np.ndarray:
    """Per-bin routing supply: ``supply_um_per_bin`` shrunk by blockages."""
    return supply_um_per_bin * np.maximum(0.05, 1.0 - 0.8 * grid.blockage_fraction)


def congestion_overflow(congestion: np.ndarray, threshold: float = 1.0) -> float:
    """Total demand exceeding supply, summed over overflowed bins."""
    return float(np.maximum(0.0, congestion - threshold).sum())


def congestion_summary(congestion: np.ndarray) -> Dict[str, float]:
    """Peak / mean / hotspot statistics used by insights and reports."""
    flat = congestion.ravel()
    return {
        "peak": float(flat.max()) if flat.size else 0.0,
        "mean": float(flat.mean()) if flat.size else 0.0,
        "p95": float(np.percentile(flat, 95)) if flat.size else 0.0,
        "overflow": congestion_overflow(congestion),
        "hotspot_fraction": float((flat > 1.0).mean()) if flat.size else 0.0,
    }


def classify_congestion(peak: float) -> str:
    """Map peak congestion to the paper's {low, medium, high} insight range."""
    if peak < 0.8:
        return "low"
    if peak < 1.15:
        return "medium"
    return "high"
