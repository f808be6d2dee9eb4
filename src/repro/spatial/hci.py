"""Hilbert Curve Index (HCI) air index (paper Appendix A, [Zheng et al. 2004]).

The data objects are mapped onto a Hilbert curve and broadcast in curve
order, split into ``m`` equal data segments interleaved with ``m`` copies of
a small directory (the B+-tree of the original work, modelled here as its
leaf level: the minimum Hilbert value of every data segment).

Range queries find the Hilbert values spanned by the query window, receive
the data segments overlapping that value interval, and filter.  kNN queries
first fetch the segments around the query point's Hilbert value to obtain
``k`` candidates, use the largest candidate distance as a radius, and then
run a range query over the corresponding window.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.broadcast.channel import ClientSession
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.interleave import interleave_one_m, optimal_m
from repro.broadcast.metrics import MemoryTracker
from repro.broadcast.packet import Segment, SegmentKind, packets_for_bytes
from repro.spatial.base import POINT_RECORD_BYTES, SpatialAirScheme, Window
from repro.spatial.hilbert import (
    hilbert_gap,
    hilbert_order_for,
    point_to_hilbert,
    window_hilbert_range,
)
from repro.spatial.points import PointObject

__all__ = ["HilbertCurveIndexScheme"]

#: Bytes of one directory entry: a Hilbert value plus a segment offset.
DIRECTORY_ENTRY_BYTES = 8


class HilbertCurveIndexScheme(SpatialAirScheme):
    """(1, m) broadcast of Hilbert-ordered points with a value directory."""

    short_name = "HCI"

    def __init__(
        self,
        points: Sequence[PointObject],
        num_data_segments: int = 16,
        order: int = 0,
    ) -> None:
        super().__init__(points)
        self.order = order or hilbert_order_for(len(self.points))
        self.num_data_segments = max(1, num_data_segments)
        self._sorted = sorted(
            self.points,
            key=lambda p: point_to_hilbert(p.x, p.y, self.bounds, self.order),
        )
        self._hilbert: Dict[int, int] = {
            p.object_id: point_to_hilbert(p.x, p.y, self.bounds, self.order)
            for p in self.points
        }
        #: (min_hilbert, max_hilbert, points) per data segment, in curve order.
        self.segments_content: List[Tuple[int, int, List[PointObject]]] = []
        per_segment = max(1, -(-len(self._sorted) // self.num_data_segments))
        for start in range(0, len(self._sorted), per_segment):
            chunk = self._sorted[start : start + per_segment]
            values = [self._hilbert[p.object_id] for p in chunk]
            self.segments_content.append((min(values), max(values), chunk))

    # ------------------------------------------------------------------
    # Cycle construction
    # ------------------------------------------------------------------
    def build_cycle(self) -> BroadcastCycle:
        data_segments = [
            Segment(
                name=f"hci-data-{index}",
                kind=SegmentKind.NETWORK_DATA,
                size_bytes=len(chunk) * POINT_RECORD_BYTES,
                payload={"points": chunk, "min_hilbert": low, "max_hilbert": high},
            )
            for index, (low, high, chunk) in enumerate(self.segments_content)
        ]
        index_segment = Segment(
            name="hci-directory",
            kind=SegmentKind.INDEX,
            size_bytes=len(self.segments_content) * DIRECTORY_ENTRY_BYTES,
            payload={"entries": [(low, i) for i, (low, _, _) in enumerate(self.segments_content)]},
        )
        data_packets = sum(segment.num_packets for segment in data_segments)
        m = optimal_m(data_packets, packets_for_bytes(index_segment.size_bytes))
        return BroadcastCycle(
            interleave_one_m(data_segments, [index_segment], m), name="HCI-cycle"
        )

    # ------------------------------------------------------------------
    # Query protocols
    # ------------------------------------------------------------------
    def range_query_on_session(
        self, window: Window, session: ClientSession, memory: MemoryTracker
    ) -> List[int]:
        session.receive_one_packet()
        self._receive_directory(session, memory)
        low, high = window_hilbert_range(window, self.bounds, self.order)
        ids: List[int] = []
        for index, (seg_low, seg_high, _) in enumerate(self.segments_content):
            if seg_high < low or seg_low > high:
                continue
            chunk = self._receive_data(session, memory, index)
            min_x, min_y, max_x, max_y = window
            ids.extend(
                p.object_id
                for p in chunk
                if min_x <= p.x <= max_x and min_y <= p.y <= max_y
            )
        return ids

    def knn_query_on_session(
        self, x: float, y: float, k: int, session: ClientSession, memory: MemoryTracker
    ) -> List[int]:
        session.receive_one_packet()
        self._receive_directory(session, memory)
        centre = point_to_hilbert(x, y, self.bounds, self.order)

        # Step 1: candidates with Hilbert values closest to the query point.
        candidate_points: List[PointObject] = []
        received: List[int] = []
        order_by_distance = sorted(
            range(len(self.segments_content)),
            key=lambda i: hilbert_gap(*self.segments_content[i][:2], centre),
        )
        for index in order_by_distance:
            if len(candidate_points) >= k:
                break
            candidate_points.extend(self._receive_data(session, memory, index))
            received.append(index)
        candidates = sorted(candidate_points, key=lambda p: (p.distance_to(x, y), p.object_id))
        if not candidates:
            return []
        radius = candidates[: k][-1].distance_to(x, y)

        # Step 2: range query with the candidate radius around the location.
        window = (x - radius, y - radius, x + radius, y + radius)
        low, high = window_hilbert_range(window, self.bounds, self.order)
        pool: Dict[int, PointObject] = {p.object_id: p for p in candidate_points}
        for index, (seg_low, seg_high, _) in enumerate(self.segments_content):
            if index in received or seg_high < low or seg_low > high:
                continue
            for p in self._receive_data(session, memory, index):
                pool[p.object_id] = p
        ranked = sorted(pool.values(), key=lambda p: (p.distance_to(x, y), p.object_id))
        return [p.object_id for p in ranked[:k]]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _receive_directory(self, session: ClientSession, memory: MemoryTracker) -> None:
        cycle = session.cycle
        segment, _ = cycle.next_segment_of_kind(SegmentKind.INDEX, session.position)
        reception = session.receive_segment(segment.name)
        while reception.lost_offsets:
            segment, _ = cycle.next_segment_of_kind(SegmentKind.INDEX, session.position)
            reception = session.receive_segment(segment.name)
        memory.allocate(segment.size_bytes)

    def _receive_data(
        self, session: ClientSession, memory: MemoryTracker, index: int
    ) -> List[PointObject]:
        name = f"hci-data-{index}"
        session.recover([(name, session.receive_segment(name).lost_offsets)])
        segment = session.cycle.segment(name)
        memory.allocate(segment.size_bytes)
        return segment.payload["points"]
