"""Distributed Spatial Index (DSI) air index (paper Appendix A, [Zheng et al. 2009]).

The objects are sorted by Hilbert value and placed into equi-sized *frames*.
Every frame starts with a small index that points to the frames ``2**i``
positions ahead (i = 0, 1, 2, ...) together with the minimum Hilbert value
found in each of them, so a client can reach any value with a logarithmic
number of hops instead of waiting for a global index -- lower access latency
than HCI at the price of some extra tuning.

Query processing mirrors HCI once the relevant frames are located.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.broadcast.channel import ClientSession
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.metrics import MemoryTracker
from repro.broadcast.packet import Segment, SegmentKind
from repro.spatial.base import POINT_RECORD_BYTES, SpatialAirScheme, Window
from repro.spatial.hilbert import (
    hilbert_gap,
    hilbert_order_for,
    point_to_hilbert,
    window_hilbert_range,
)
from repro.spatial.points import PointObject

__all__ = ["DistributedSpatialIndexScheme"]

#: Bytes of one exponential-pointer entry: a frame offset plus a Hilbert value.
POINTER_ENTRY_BYTES = 8


class DistributedSpatialIndexScheme(SpatialAirScheme):
    """Hilbert-ordered frames, each carrying an exponential pointer table."""

    short_name = "DSI"

    def __init__(
        self,
        points: Sequence[PointObject],
        num_frames: int = 32,
        order: int = 0,
    ) -> None:
        super().__init__(points)
        self.order = order or hilbert_order_for(len(self.points))
        self.num_frames = max(1, min(num_frames, len(self.points)))
        self._hilbert: Dict[int, int] = {
            p.object_id: point_to_hilbert(p.x, p.y, self.bounds, self.order)
            for p in self.points
        }
        ordered = sorted(self.points, key=lambda p: self._hilbert[p.object_id])
        per_frame = max(1, -(-len(ordered) // self.num_frames))
        #: (min_hilbert, max_hilbert, points) per frame, in curve order.
        self.frames: List[Tuple[int, int, List[PointObject]]] = []
        for start in range(0, len(ordered), per_frame):
            chunk = ordered[start : start + per_frame]
            values = [self._hilbert[p.object_id] for p in chunk]
            self.frames.append((min(values), max(values), chunk))
        self.num_frames = len(self.frames)

    # ------------------------------------------------------------------
    # Cycle construction
    # ------------------------------------------------------------------
    def build_cycle(self) -> BroadcastCycle:
        segments: List[Segment] = []
        pointer_count = max(1, self.num_frames.bit_length())
        for index, (low, high, chunk) in enumerate(self.frames):
            segments.append(
                Segment(
                    name=f"dsi-index-{index}",
                    kind=SegmentKind.LOCAL_INDEX,
                    size_bytes=pointer_count * POINTER_ENTRY_BYTES,
                    payload={"frame": index},
                )
            )
            segments.append(
                Segment(
                    name=f"dsi-data-{index}",
                    kind=SegmentKind.NETWORK_DATA,
                    size_bytes=len(chunk) * POINT_RECORD_BYTES,
                    payload={"points": chunk, "min_hilbert": low, "max_hilbert": high},
                )
            )
        return BroadcastCycle(segments, name="DSI-cycle")

    def pointer_targets(self, frame: int) -> List[int]:
        """Frames reachable from ``frame``'s index: 1, 2, 4, ... positions ahead."""
        targets = []
        step = 1
        while step < max(self.num_frames, 2):
            targets.append((frame + step) % self.num_frames)
            step *= 2
        return targets or [frame]

    # ------------------------------------------------------------------
    # Query protocols
    # ------------------------------------------------------------------
    def range_query_on_session(
        self, window: Window, session: ClientSession, memory: MemoryTracker
    ) -> List[int]:
        low, high = window_hilbert_range(window, self.bounds, self.order)
        needed = [
            index
            for index, (frame_low, frame_high, _) in enumerate(self.frames)
            if not (frame_high < low or frame_low > high)
        ]
        collected = self._collect_frames(session, memory, needed)
        min_x, min_y, max_x, max_y = window
        return [
            p.object_id
            for p in collected
            if min_x <= p.x <= max_x and min_y <= p.y <= max_y
        ]

    def knn_query_on_session(
        self, x: float, y: float, k: int, session: ClientSession, memory: MemoryTracker
    ) -> List[int]:
        centre = point_to_hilbert(x, y, self.bounds, self.order)
        order_by_gap = sorted(
            range(self.num_frames), key=lambda i: hilbert_gap(*self.frames[i][:2], centre)
        )
        candidate_frames: List[int] = []
        count = 0
        for index in order_by_gap:
            candidate_frames.append(index)
            count += len(self.frames[index][2])
            if count >= k:
                break
        candidates = self._collect_frames(session, memory, candidate_frames)
        candidates.sort(key=lambda p: (p.distance_to(x, y), p.object_id))
        if not candidates:
            return []
        radius = candidates[: k][-1].distance_to(x, y)
        window = (x - radius, y - radius, x + radius, y + radius)
        low, high = window_hilbert_range(window, self.bounds, self.order)
        remaining = [
            index
            for index, (frame_low, frame_high, _) in enumerate(self.frames)
            if index not in set(candidate_frames)
            and not (frame_high < low or frame_low > high)
        ]
        pool = {p.object_id: p for p in candidates}
        for p in self._collect_frames(session, memory, remaining):
            pool[p.object_id] = p
        ranked = sorted(pool.values(), key=lambda p: (p.distance_to(x, y), p.object_id))
        return [p.object_id for p in ranked[:k]]

    # ------------------------------------------------------------------
    # Frame navigation
    # ------------------------------------------------------------------
    def _collect_frames(
        self, session: ClientSession, memory: MemoryTracker, needed: List[int]
    ) -> List[PointObject]:
        """Navigate via the exponential pointers and receive the needed frames."""
        if not needed:
            return []
        needed_set: Set[int] = set(needed)
        collected: List[PointObject] = []
        cycle = session.cycle

        # Start by reading the index of whatever frame is next on the air.
        segment, _ = cycle.next_segment_of_kind(SegmentKind.LOCAL_INDEX, session.position)
        session.receive_segment(segment.name)
        memory.allocate(segment.size_bytes)
        current = segment.payload["frame"]

        visited_indexes = 0
        while needed_set and visited_indexes <= 4 * self.num_frames:
            visited_indexes += 1
            if current in needed_set:
                collected.extend(self._receive_frame(session, memory, current))
                needed_set.discard(current)
                if not needed_set:
                    break
                # The index adjacent to the data we just received is next on
                # the air; read it to continue hopping.
                next_index = (current + 1) % self.num_frames
                self._receive_index(session, memory, next_index)
                current = next_index
                continue
            # Hop as far forward as possible without overshooting a needed
            # frame (the DSI exponential jump).
            targets = self.pointer_targets(current)
            best = targets[0]
            for target in targets:
                if self._cyclic_reaches(current, target, needed_set):
                    best = target
            if best in needed_set or self._distance(current, best) <= self._nearest_needed_distance(current, needed_set):
                current = best
            else:
                current = (current + 1) % self.num_frames
            self._receive_index(session, memory, current)
        return collected

    def _receive_index(self, session: ClientSession, memory: MemoryTracker, index: int) -> None:
        name = f"dsi-index-{index}"
        session.recover([(name, session.receive_segment(name).lost_offsets)])
        memory.allocate(session.cycle.segment(name).size_bytes)

    def _receive_frame(
        self, session: ClientSession, memory: MemoryTracker, index: int
    ) -> List[PointObject]:
        name = f"dsi-data-{index}"
        session.recover([(name, session.receive_segment(name).lost_offsets)])
        segment = session.cycle.segment(name)
        memory.allocate(segment.size_bytes)
        return segment.payload["points"]

    # ------------------------------------------------------------------
    # Small arithmetic helpers
    # ------------------------------------------------------------------
    def _distance(self, start: int, end: int) -> int:
        return (end - start) % self.num_frames

    def _nearest_needed_distance(self, current: int, needed: Set[int]) -> int:
        return min(self._distance(current, index) for index in needed)

    def _cyclic_reaches(self, current: int, target: int, needed: Set[int]) -> bool:
        """Does hopping to ``target`` stay at or before the nearest needed frame?"""
        return self._distance(current, target) <= self._nearest_needed_distance(current, needed)
