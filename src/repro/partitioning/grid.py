"""Regular-grid partitioning (the paper's "straightforward approach").

Section 4.1 discusses superimposing a regular grid of equi-sized cells over
the network: the client can then map coordinates to regions knowing only the
grid granularity and spatial extent.  The paper prefers kd-tree partitioning
because grid cells can be badly unbalanced; we implement the grid both as a
baseline for that design decision (ablation benchmarks) and because the BGI
spatial air index (Appendix A) is built on it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning

__all__ = ["GridPartitioner", "build_grid_partitioning"]


class GridPartitioner:
    """A ``rows x cols`` grid of equi-sized cells over a bounding box."""

    def __init__(
        self,
        bounds: Tuple[float, float, float, float],
        rows: int,
        cols: int,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("grid must have at least one row and one column")
        min_x, min_y, max_x, max_y = bounds
        if max_x < min_x or max_y < min_y:
            raise ValueError(f"invalid bounding box {bounds}")
        self.bounds = bounds
        self.rows = rows
        self.cols = cols
        self._cell_width = (max_x - min_x) / cols or 1.0
        self._cell_height = (max_y - min_y) / rows or 1.0

    @property
    def num_regions(self) -> int:
        """Total number of grid cells."""
        return self.rows * self.cols

    def locate(self, x: float, y: float) -> int:
        """Region (cell) index of point ``(x, y)``; points outside are clamped."""
        min_x, min_y, _, _ = self.bounds
        col = int((x - min_x) / self._cell_width)
        row = int((y - min_y) / self._cell_height)
        col = min(max(col, 0), self.cols - 1)
        row = min(max(row, 0), self.rows - 1)
        return row * self.cols + col

    def locate_many(self, xs, ys) -> np.ndarray:
        """Cells of the points ``(xs[i], ys[i])``, as :meth:`locate` finds
        them: truncate toward zero, then clamp into the grid."""
        min_x, min_y, _, _ = self.bounds
        col = np.trunc((np.asarray(xs, dtype=np.float64) - min_x) / self._cell_width)
        row = np.trunc((np.asarray(ys, dtype=np.float64) - min_y) / self._cell_height)
        col = np.clip(col, 0, self.cols - 1).astype(np.int64)
        row = np.clip(row, 0, self.rows - 1).astype(np.int64)
        return row * self.cols + col

    def cell_bounds(self, region: int) -> Tuple[float, float, float, float]:
        """Bounding box ``(min_x, min_y, max_x, max_y)`` of cell ``region``."""
        if not 0 <= region < self.num_regions:
            raise IndexError(f"region {region} out of range")
        row, col = divmod(region, self.cols)
        min_x, min_y, _, _ = self.bounds
        x0 = min_x + col * self._cell_width
        y0 = min_y + row * self._cell_height
        return (x0, y0, x0 + self._cell_width, y0 + self._cell_height)


def build_grid_partitioning(network: RoadNetwork, rows: int, cols: int) -> Partitioning:
    """Partition ``network`` with a ``rows x cols`` regular grid."""
    partitioner = GridPartitioner(network.bounding_box(), rows, cols)
    return Partitioning(network, partitioner)
