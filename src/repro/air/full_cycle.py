"""Base machinery for the full-cycle broadcast adaptations (Section 3.2).

Dijkstra, ArcFlag and Landmark cannot tune selectively: the node to expand
next may already have been broadcast, so waiting for it would cost up to one
cycle *per expansion*.  Their only viable adaptation is to listen to the
entire broadcast cycle, store it, and run the query locally.  This module
implements that shared behaviour; the concrete schemes differ only in what
extra pre-computed information rides along with the adjacency data and in the
local algorithm executed afterwards.

Packet-loss handling follows Section 6.2: lost *adjacency* packets must be
re-received in a later cycle (an incomplete graph could yield a wrong path),
while lost *pre-computed* packets are tolerated by degrading the information
(ArcFlag flags assumed all-ones, Landmark bounds assumed zero), which only
slows the local search down.
"""

from __future__ import annotations

from typing import List

from repro.air.base import AirClient, AirIndexScheme, ClientOptions, CpuTimer, QueryResult
from repro.broadcast.channel import ClientSession
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.metrics import MemoryTracker
from repro.broadcast.packet import Segment, SegmentKind
from repro.network.algorithms.paths import PathResult

__all__ = ["FullCycleScheme", "FullCycleClient"]

#: Number of data segments the network adjacency data are split into.  Full
#: cycle methods receive everything anyway; splitting only makes the loss
#: bookkeeping (adjacency vs pre-computed packets) granular.
DATA_SEGMENTS = 16


class FullCycleScheme(AirIndexScheme):
    """A scheme whose client listens to the whole cycle before processing."""

    def _network_data_segments(self) -> List[Segment]:
        """Split the adjacency data into :data:`DATA_SEGMENTS` segments."""
        node_ids = self.network.node_ids()
        per_segment = max(1, -(-len(node_ids) // DATA_SEGMENTS))
        segments: List[Segment] = []
        for index in range(0, len(node_ids), per_segment):
            chunk = node_ids[index : index + per_segment]
            segments.append(
                Segment(
                    name=f"network-data-{index // per_segment}",
                    kind=SegmentKind.NETWORK_DATA,
                    size_bytes=self.layout.adjacency_bytes(self.network, chunk),
                    payload={"nodes": chunk},
                )
            )
        return segments

    def _precomputed_segments(self) -> List[Segment]:
        """Extra pre-computed information; none by default (Dijkstra)."""
        return []

    def build_cycle(self) -> BroadcastCycle:
        segments = self._network_data_segments() + self._precomputed_segments()
        return BroadcastCycle(segments, name=f"{self.short_name}-cycle")

    def _make_client(self, options: ClientOptions) -> "FullCycleClient":
        return FullCycleClient(self, options=options)

    # ------------------------------------------------------------------
    # Local processing hook
    # ------------------------------------------------------------------
    def local_query(self, source: int, target: int, degraded: bool) -> PathResult:
        """Run the scheme's local algorithm on the fully received network.

        ``degraded`` is ``True`` when pre-computed packets were lost and the
        Section 6.2 fallbacks must be used.
        """
        raise NotImplementedError


class FullCycleClient(AirClient):
    """Receives one entire cycle, then queries locally."""

    scheme: FullCycleScheme

    def process(
        self, source: int, target: int, session: ClientSession, memory: MemoryTracker
    ) -> QueryResult:
        cycle = session.cycle
        degraded = False

        # Receive every segment, in the order it next appears on the air.
        order = sorted(
            cycle.segments,
            key=lambda seg: (cycle.segment_start(seg.name) - session.start_position)
            % cycle.total_packets,
        )
        lost_adjacency = []
        for segment in order:
            reception = session.receive_segment(segment.name)
            memory.allocate(segment.size_bytes)
            if reception.lost_offsets:
                if segment.kind == SegmentKind.NETWORK_DATA:
                    lost_adjacency.append((segment.name, reception.lost_offsets))
                else:
                    degraded = True

        # Re-receive lost adjacency packets (possibly over several cycles).
        session.recover(lost_adjacency)

        with CpuTimer(self.device) as timer:
            local = self.scheme.local_query(source, target, degraded)
        # Working structures (heap, distance maps) on top of the stored cycle.
        scheme = self.scheme
        memory.allocate(scheme.layout.search_working_set_bytes(scheme.network.num_nodes))

        result = QueryResult(
            source=source,
            target=target,
            distance=local.distance,
            path=local.path,
        )
        result.metrics.cpu_seconds = timer.seconds
        result.metrics.extra["settled_nodes"] = float(local.settled)
        return result

