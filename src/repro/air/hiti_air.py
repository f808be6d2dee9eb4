"""Broadcast adaptation of HiTi (paper Section 3.2).

HiTi is the only competitor that can tune selectively: its hierarchical
super-edge index tells the client in advance which regions matter.  The
catch, which the paper quantifies, is that the client must first receive the
*entire* index, and that index is several times larger than the network
itself -- long cycle, long tuning time, and a working set that does not fit
the 8 MB device heap for anything but the smallest networks (Tables 1 and 2).

The client here receives the global index, determines the source/target
regions, receives those two regions' adjacency data, and answers the query on
the super-edge overlay.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.air.base import AirClient, ClientOptions, CpuTimer, QueryResult
from repro.air.registry import register_scheme
from repro.broadcast.channel import ClientSession
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.metrics import MemoryTracker
from repro.broadcast.packet import Segment, SegmentKind
from repro.index.hiti import HiTiIndex
from repro.network.graph import RoadNetwork
from repro.air.substrate import PartitionedScheme

__all__ = ["HiTiBroadcastScheme", "HiTiParams"]


@dataclass(frozen=True)
class HiTiParams:
    """Tunable knobs of the HiTi broadcast adaptation."""

    num_regions: int = 16


@register_scheme(
    "HiTi",
    params=HiTiParams,
    description="Hierarchical super-edge index broadcast (selective, but oversized; Table 1)",
    comparison=False,
    config_map={"num_regions": "hiti_regions"},
)
class HiTiBroadcastScheme(PartitionedScheme):
    """Hierarchical super-edge index broadcast ahead of per-region data."""

    index_class = HiTiIndex

    def _index_segment(self) -> Segment:
        # Crossing (inter-region) edges are part of the index: the client
        # needs them to stitch super-edges of different regions together.
        index_bytes = (
            self.layout.kd_split_bytes(self.num_regions)
            + self.index.num_super_edges() * self.layout.hiti_super_edge_bytes()
            + self.index.num_crossing_edges()
            * (2 * self.layout.node_id_bytes + self.layout.weight_bytes)
        )
        return Segment(
            name="hiti-index",
            kind=SegmentKind.INDEX,
            size_bytes=index_bytes,
            payload={"index": self.index},
        )

    def build_cycle(self) -> BroadcastCycle:
        regions = [
            self.partitioning.nodes_in_region(region) for region in range(self.num_regions)
        ]
        sizes = self.layout.grouped_adjacency_bytes(self.network, regions)
        segments: List[Segment] = [self._index_segment()]
        for region, (nodes, size) in enumerate(zip(regions, sizes)):
            segments.append(
                Segment(
                    name=f"region-{region}",
                    kind=SegmentKind.REGION_CROSS_BORDER,
                    size_bytes=size,
                    region=region,
                    payload={"nodes": nodes},
                )
            )
        return BroadcastCycle(segments, name="HiTi-cycle")

    # ------------------------------------------------------------------
    # Incremental maintenance (dynamic networks)
    # ------------------------------------------------------------------
    def shadow_rebuild(self, network: RoadNetwork, delta) -> Optional["HiTiBroadcastScheme"]:
        """Recompute super-edges only for the hierarchy blocks touching a
        dirty region, then re-pack only the index segment.

        HiTi is the natural fit for partition-local updates: a changed edge
        is internal to exactly the sub-graphs covering its endpoints'
        regions, so one dirty leaf costs one leaf recompute plus its
        ``log2(num_regions)`` ancestors instead of the whole hierarchy.  The
        replacement copies only the index's level dicts and shares every
        block with this instance: :meth:`HiTiIndex.refresh` replaces dirty
        blocks rather than mutating them.  The per-region data segments
        depend only on structure (node lists and degrees) and are reused
        as-is; structural deltas fall back to a full rebuild because they
        can move borders.
        """
        if network is not self.network or delta.structural:
            return None
        started = time.perf_counter()
        clone = copy.copy(self)
        clone.index = copy.copy(self.index)
        clone.index.levels = [dict(level) for level in self.index.levels]
        if delta.changes:
            clone.index.refresh(delta.dirty_regions(self.partitioning))
        if self._cycle is not None:
            # Only the index segment's size can move with the super edges.
            segments = [clone._index_segment()] + [
                segment for segment in self._cycle.segments if segment.name != "hiti-index"
            ]
            clone._cycle = BroadcastCycle(segments, name="HiTi-cycle")
        return clone._track_refresh(started)

    def _make_client(self, options: ClientOptions) -> "HiTiBroadcastClient":
        return HiTiBroadcastClient(self, options=options)


class HiTiBroadcastClient(AirClient):
    """Receives the full index plus the source/target regions."""

    scheme: HiTiBroadcastScheme

    def process(
        self, source: int, target: int, session: ClientSession, memory: MemoryTracker
    ) -> QueryResult:
        cycle = session.cycle
        # Read the current packet to learn where the next index copy starts.
        session.receive_one_packet()

        session.recover([("hiti-index", session.receive_segment("hiti-index").lost_offsets)])
        memory.allocate(cycle.segment("hiti-index").size_bytes)

        partitioning = self.scheme.partitioning
        source_region = partitioning.region_of(source)
        target_region = partitioning.region_of(target)

        received_regions = sorted({source_region, target_region})
        for region in received_regions:
            name = f"region-{region}"
            session.recover([(name, session.receive_segment(name).lost_offsets)])
            memory.allocate(cycle.segment(name).size_bytes)

        with CpuTimer(self.device) as timer:
            local = self.scheme.index.query(source, target)

        result = QueryResult(
            source=source,
            target=target,
            distance=local.distance,
            path=local.path,
            received_regions=received_regions,
        )
        result.metrics.cpu_seconds = timer.seconds
        result.metrics.extra["settled_nodes"] = float(local.settled)
        return result
