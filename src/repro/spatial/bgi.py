"""Broadcast Grid Index (BGI) air index (paper Appendix A, [Mouratidis et al. 2009]).

The objects are partitioned by a regular grid; the index stores, per cell,
the number of contained objects.  Following the (1, m) scheme, the index
precedes each of ``m`` data segments.  A kNN client first receives the index,
derives an upper bound ``dmax`` on the kth-neighbor distance from the cell
counts, and then receives only the cells within ``dmax`` of its location.
Range queries simply receive the cells intersecting the window.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.broadcast.channel import ClientSession
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.interleave import interleave_one_m, optimal_m
from repro.broadcast.metrics import MemoryTracker
from repro.broadcast.packet import Segment, SegmentKind, packets_for_bytes
from repro.spatial.base import POINT_RECORD_BYTES, SpatialAirScheme, Window
from repro.spatial.points import PointObject

__all__ = ["BroadcastGridIndexScheme"]

#: Bytes of one index entry: cell identifier plus object count.
CELL_ENTRY_BYTES = 8


class BroadcastGridIndexScheme(SpatialAirScheme):
    """Regular-grid partitioned points with a per-cell count index."""

    short_name = "BGI"

    def __init__(self, points: Sequence[PointObject], rows: int = 8, cols: int = 8) -> None:
        super().__init__(points)
        if rows < 1 or cols < 1:
            raise ValueError("grid must have at least one row and one column")
        self.rows = rows
        self.cols = cols
        min_x, min_y, max_x, max_y = self.bounds
        self.cell_width = (max_x - min_x) / cols or 1.0
        self.cell_height = (max_y - min_y) / rows or 1.0
        self.cells: Dict[int, List[PointObject]] = {i: [] for i in range(rows * cols)}
        for point in self.points:
            self.cells[self.cell_of(point.x, point.y)].append(point)

    # ------------------------------------------------------------------
    # Grid geometry
    # ------------------------------------------------------------------
    def cell_of(self, x: float, y: float) -> int:
        """Grid cell containing point ``(x, y)`` (clamped to the extent)."""
        min_x, min_y, _, _ = self.bounds
        col = min(self.cols - 1, max(0, int((x - min_x) / self.cell_width)))
        row = min(self.rows - 1, max(0, int((y - min_y) / self.cell_height)))
        return row * self.cols + col

    def cell_bounds(self, cell: int) -> Tuple[float, float, float, float]:
        """Bounding box of ``cell``."""
        row, col = divmod(cell, self.cols)
        min_x, min_y, _, _ = self.bounds
        x0 = min_x + col * self.cell_width
        y0 = min_y + row * self.cell_height
        return (x0, y0, x0 + self.cell_width, y0 + self.cell_height)

    def min_distance_to_cell(self, x: float, y: float, cell: int) -> float:
        """Smallest Euclidean distance from ``(x, y)`` to the cell rectangle."""
        x0, y0, x1, y1 = self.cell_bounds(cell)
        dx = max(x0 - x, 0.0, x - x1)
        dy = max(y0 - y, 0.0, y - y1)
        return math.hypot(dx, dy)

    def max_distance_to_cell(self, x: float, y: float, cell: int) -> float:
        """Largest Euclidean distance from ``(x, y)`` to the cell rectangle."""
        x0, y0, x1, y1 = self.cell_bounds(cell)
        dx = max(abs(x - x0), abs(x - x1))
        dy = max(abs(y - y0), abs(y - y1))
        return math.hypot(dx, dy)

    # ------------------------------------------------------------------
    # Cycle construction
    # ------------------------------------------------------------------
    def build_cycle(self) -> BroadcastCycle:
        data_segments = [
            Segment(
                name=f"bgi-cell-{cell}",
                kind=SegmentKind.NETWORK_DATA,
                size_bytes=max(1, len(points) * POINT_RECORD_BYTES),
                payload={"points": points},
                region=cell,
            )
            for cell, points in self.cells.items()
        ]
        index_segment = Segment(
            name="bgi-index",
            kind=SegmentKind.INDEX,
            size_bytes=len(self.cells) * CELL_ENTRY_BYTES,
            payload={"counts": {cell: len(points) for cell, points in self.cells.items()}},
        )
        data_packets = sum(segment.num_packets for segment in data_segments)
        m = optimal_m(data_packets, packets_for_bytes(index_segment.size_bytes))
        return BroadcastCycle(
            interleave_one_m(data_segments, [index_segment], m), name="BGI-cycle"
        )

    # ------------------------------------------------------------------
    # Query protocols
    # ------------------------------------------------------------------
    def range_query_on_session(
        self, window: Window, session: ClientSession, memory: MemoryTracker
    ) -> List[int]:
        session.receive_one_packet()
        self._receive_index(session, memory)
        min_x, min_y, max_x, max_y = window
        ids: List[int] = []
        for cell in self.cells:
            x0, y0, x1, y1 = self.cell_bounds(cell)
            if x1 < min_x or x0 > max_x or y1 < min_y or y0 > max_y:
                continue
            if not self.cells[cell]:
                continue
            for p in self._receive_cell(session, memory, cell):
                if min_x <= p.x <= max_x and min_y <= p.y <= max_y:
                    ids.append(p.object_id)
        return ids

    def knn_query_on_session(
        self, x: float, y: float, k: int, session: ClientSession, memory: MemoryTracker
    ) -> List[int]:
        session.receive_one_packet()
        self._receive_index(session, memory)

        # Upper bound dmax: grow the candidate cell set in order of maximum
        # distance until the guaranteed object count reaches k.
        by_max = sorted(
            (cell for cell in self.cells if self.cells[cell]),
            key=lambda cell: self.max_distance_to_cell(x, y, cell),
        )
        count = 0
        dmax = float("inf")
        for cell in by_max:
            count += len(self.cells[cell])
            if count >= k:
                dmax = self.max_distance_to_cell(x, y, cell)
                break

        # Receive every non-empty cell whose minimum distance is within dmax.
        pool: Dict[int, PointObject] = {}
        for cell in self.cells:
            if not self.cells[cell]:
                continue
            if self.min_distance_to_cell(x, y, cell) > dmax:
                continue
            for p in self._receive_cell(session, memory, cell):
                pool[p.object_id] = p
        ranked = sorted(pool.values(), key=lambda p: (p.distance_to(x, y), p.object_id))
        return [p.object_id for p in ranked[:k]]

    # ------------------------------------------------------------------
    # Reception helpers
    # ------------------------------------------------------------------
    def _receive_index(self, session: ClientSession, memory: MemoryTracker) -> None:
        cycle = session.cycle
        segment, _ = cycle.next_segment_of_kind(SegmentKind.INDEX, session.position)
        reception = session.receive_segment(segment.name)
        while reception.lost_offsets:
            segment, _ = cycle.next_segment_of_kind(SegmentKind.INDEX, session.position)
            reception = session.receive_segment(segment.name)
        memory.allocate(segment.size_bytes)

    def _receive_cell(
        self, session: ClientSession, memory: MemoryTracker, cell: int
    ) -> List[PointObject]:
        name = f"bgi-cell-{cell}"
        session.recover([(name, session.receive_segment(name).lost_offsets)])
        segment = session.cycle.segment(name)
        memory.allocate(segment.size_bytes)
        return segment.payload["points"]
