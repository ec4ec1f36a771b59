"""Placement grid: bins the die, tracks cell-area density and blockages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass
class PlacementGrid:
    """A regular bin grid over the die.

    Attributes:
        width_um / height_um: Die extents.
        bins_x / bins_y: Grid resolution.
        blockage_fraction: Per-bin fraction of area covered by macros,
            shape ``(bins_y, bins_x)``.
    """

    width_um: float
    height_um: float
    bins_x: int
    bins_y: int
    blockage_fraction: np.ndarray

    @classmethod
    def for_die(
        cls,
        width_um: float,
        height_um: float,
        blockages: List[Tuple[float, float, float, float]],
        target_bins: int = 16,
    ) -> "PlacementGrid":
        """Build a grid with ~``target_bins`` bins per side, rasterizing macros."""
        bins_x = max(4, target_bins)
        bins_y = max(4, target_bins)
        fraction = np.zeros((bins_y, bins_x))
        bin_w = width_um / bins_x
        bin_h = height_um / bins_y
        for (bx, by, bw, bh) in blockages:
            for iy in range(bins_y):
                for ix in range(bins_x):
                    x0, y0 = ix * bin_w, iy * bin_h
                    overlap_w = max(0.0, min(x0 + bin_w, bx + bw) - max(x0, bx))
                    overlap_h = max(0.0, min(y0 + bin_h, by + bh) - max(y0, by))
                    fraction[iy, ix] += (overlap_w * overlap_h) / (bin_w * bin_h)
        np.clip(fraction, 0.0, 1.0, out=fraction)
        return cls(width_um, height_um, bins_x, bins_y, fraction)

    @property
    def bin_width_um(self) -> float:
        return self.width_um / self.bins_x

    @property
    def bin_height_um(self) -> float:
        return self.height_um / self.bins_y

    @property
    def bin_area_um2(self) -> float:
        return self.bin_width_um * self.bin_height_um

    def bin_indices(self, xs: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map coordinates to (row, col) bin indices, clipped to the die."""
        cols = np.clip((xs / self.bin_width_um).astype(np.int64), 0, self.bins_x - 1)
        rows = np.clip((ys / self.bin_height_um).astype(np.int64), 0, self.bins_y - 1)
        return rows, cols

    def density_map(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        areas: np.ndarray,
        blockage_penalty: bool = True,
    ) -> np.ndarray:
        """Cell-area density per bin.

        Density 1.0 means the bin's free (non-macro) area is fully used.
        With ``blockage_penalty`` (the default, used as the spreading field),
        heavily-blocked bins get a constant bump so the force field always
        pushes cells off macros; pass ``False`` for reporting.
        """
        rows, cols = self.bin_indices(xs, ys)
        used = np.zeros((self.bins_y, self.bins_x))
        np.add.at(used, (rows, cols), areas)
        return self.density_of(used, blockage_penalty)

    def density_of(self, used: np.ndarray, blockage_penalty: bool = True) -> np.ndarray:
        """:meth:`density_map` of per-bin used area ``used``, shape
        ``(..., bins_y, bins_x)`` — any leading axes are lanes."""
        density = used / self.free_area()
        if blockage_penalty:
            density = density + self.blockage_bump()
        return density

    def free_area(self) -> np.ndarray:
        """Per-bin non-macro area, clamped so fully-blocked bins keep
        density finite."""
        return self.bin_area_um2 * np.maximum(0.05, 1.0 - self.blockage_fraction)

    def blockage_bump(self) -> np.ndarray:
        """The constant density bump on heavily-blocked bins."""
        return np.where(self.blockage_fraction > 0.9, 3.0, 0.0)

    def bin_centers(self) -> Tuple[np.ndarray, np.ndarray]:
        """Mesh of bin-center coordinates (cx, cy), each (bins_y, bins_x)."""
        cx = (np.arange(self.bins_x) + 0.5) * self.bin_width_um
        cy = (np.arange(self.bins_y) + 0.5) * self.bin_height_um
        return np.meshgrid(cx, cy)
