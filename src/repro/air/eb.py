"""The Elliptic Boundary (EB) method (paper Section 4).

Server side, EB partitions the network with a kd-tree, pre-computes shortest
paths between all border nodes, and broadcasts:

* an index whose first component is the kd splitting values and whose second
  component is the n x n array ``A`` of minimum/maximum inter-region
  distances (plus a per-region data offset column), replicated ``m`` times
  following the (1, m) scheme with copies forced between regions, and
* per region, a *cross-border* data segment (adjacency of nodes appearing on
  some pre-computed path) and a *local* segment (the remaining nodes).

Client side (Algorithm 1), the device reads one packet to find the next
index copy, receives the index, derives the upper bound
``UB = A[Rs][Rt].max``, prunes every region ``R`` with
``mindist(Rs, R) + mindist(R, Rt) > UB``, receives the surviving regions
(cross-border segments only, except for the source and target regions), and
runs Dijkstra in their union.

Packet loss (Section 6.2): the cells of ``A`` are packed into w x w squares
so that a lost index packet rarely covers the needed row/column; when it
does, the missing packets are re-received from the next index copy.  Lost
region packets are always re-received (an incomplete graph could produce a
wrong path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.air.base import AirClient, ClientOptions, QueryResult
from repro.air.registry import register_scheme
from repro.air.packing import CellPacking, RowMajorCellPacking, SquareCellPacking
from repro.air.region_scheme import RegionQuery, RegionScheme
from repro.broadcast.channel import ClientSession
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.interleave import optimal_m
from repro.broadcast.metrics import MemoryTracker
from repro.broadcast.packet import PACKET_PAYLOAD_BYTES, Segment, SegmentKind, packets_for_bytes

__all__ = ["EllipticBoundaryScheme", "EllipticBoundaryClient", "EBParams"]


@dataclass(frozen=True)
class EBParams:
    """Tunable knobs of the Elliptic Boundary method."""

    num_regions: int = 32
    #: Square (w x w) packing of the A-matrix cells; ``False`` selects the
    #: row-major ablation baseline of Section 6.2 / Figure 9.
    square_packing: bool = True


@register_scheme(
    "EB",
    params=EBParams,
    description="Elliptic Boundary: global index + network-ellipse pruning (Section 4)",
    config_map={"num_regions": "eb_nr_regions"},
)
class EllipticBoundaryScheme(RegionScheme):
    """Server side of EB: pre-computation and broadcast cycle layout."""

    def _configure(self, num_regions: int, square_packing: bool) -> None:
        self.num_regions = num_regions
        self.square_packing = square_packing
        # Packet layout of the index segment: kd splits and the offset column
        # occupy the leading packets, then the A-matrix cells follow, packed
        # into squares (or row-major for the ablation baseline).
        header_bytes = self.layout.kd_split_bytes(num_regions) + num_regions * self.layout.offset_bytes
        self.index_header_packets = packets_for_bytes(header_bytes)
        packing_cls = SquareCellPacking if square_packing else RowMajorCellPacking
        self.cell_packing: CellPacking = packing_cls(
            num_regions, self.layout.eb_cells_per_packet()
        )
        self.index_packets = self.index_header_packets + self.cell_packing.num_packets
        #: Informational content of the index (what the client stores).
        self.index_bytes = self.layout.eb_index_bytes(num_regions)
        #: On-air size of one index copy, including the packing alignment
        #: (header packets and square-packed cell packets do not share space).
        self.index_air_bytes = self.index_packets * PACKET_PAYLOAD_BYTES

    def _needed_regions(self, source_region: int, target_region: int) -> List[int]:
        """The "network ellipse" of Section 4.2."""
        return self.precomputation.needed_regions_eb(source_region, target_region)

    # ------------------------------------------------------------------
    # Cycle construction
    # ------------------------------------------------------------------
    def build_cycle(self) -> BroadcastCycle:
        region_groups = self._region_segments()
        data_packets = sum(
            segment.num_packets for group in region_groups for segment in group
        )
        copies = optimal_m(data_packets, self.index_packets)
        copies = min(copies, len(region_groups))

        # Place index copies between region groups so that no region's data
        # are interrupted by index packets.
        target_per_group = data_packets / copies
        segments: List[Segment] = []
        emitted_copies = 0
        packets_since_copy = 0.0
        segments.extend(self._index_copy(emitted_copies))
        emitted_copies += 1
        for position, group in enumerate(region_groups):
            remaining_groups = len(region_groups) - position
            remaining_copies = copies - emitted_copies
            if (
                emitted_copies < copies
                and packets_since_copy >= target_per_group
                and remaining_groups >= remaining_copies
            ):
                segments.extend(self._index_copy(emitted_copies))
                emitted_copies += 1
                packets_since_copy = 0.0
            segments.extend(group)
            packets_since_copy += sum(segment.num_packets for segment in group)
        return BroadcastCycle(segments, name="EB-cycle")

    def _index_copy(self, copy: int) -> List[Segment]:
        return [
            Segment(
                name=f"eb-index#copy{copy}",
                kind=SegmentKind.INDEX,
                size_bytes=self.index_air_bytes,
                payload={"copy": copy},
                metadata={"index_copy": copy},
            )
        ]

    # ------------------------------------------------------------------
    # Index packet layout helpers (shared with the client)
    # ------------------------------------------------------------------
    def needed_index_packets(self, source_region: int, target_region: int) -> Set[int]:
        """Index packet offsets whose loss forces waiting for another copy.

        These are the header packets (kd splits + offsets) plus the packets
        covering row ``source_region`` and column ``target_region`` of A.
        """
        needed = set(range(self.index_header_packets))
        for packet in self.cell_packing.packets_for_row_and_column(
            source_region, target_region
        ):
            needed.add(self.index_header_packets + packet)
        return needed

    def splitting_values(self) -> List[float]:
        """The kd splitting values (first index component)."""
        return self.partitioning.locator.splitting_values()

    # ------------------------------------------------------------------
    # Client
    # ------------------------------------------------------------------
    def _make_client(self, options: ClientOptions) -> "EllipticBoundaryClient":
        return EllipticBoundaryClient(self, options=options)


class EllipticBoundaryClient(AirClient):
    """Client side of EB: Algorithm 1 with loss handling and Section 6.1 mode."""

    scheme: EllipticBoundaryScheme

    def process(
        self, source: int, target: int, session: ClientSession, memory: MemoryTracker
    ) -> QueryResult:
        scheme = self.scheme
        cycle = session.cycle

        # Step 1: read the packet currently on the air; it carries the offset
        # of the next index copy.
        session.receive_one_packet()

        # Step 2: receive the next index copy in full.
        query = RegionQuery(self, source, target, session, memory)
        self._receive_index(query)
        memory.allocate(scheme.index_bytes)

        # Step 3: decide which regions are needed (the "network ellipse").
        needed = scheme.needed_regions(query.source_region, query.target_region)

        # Step 4: receive the needed regions in broadcast order; lost packets
        # are recovered once every region was received (Section 6.2).
        for region in sorted(
            needed,
            key=lambda region: (cycle.segment_start(f"region-{region}-cross") - session.position)
            % cycle.total_packets,
        ):
            query.receive_region(region)

        # Step 5: compute the shortest path locally.
        return query.finish(needed)

    def _receive_index(self, query: RegionQuery) -> None:
        """Receive the next index copy, recovering needed packets if lost."""
        session = query.session
        cycle = session.cycle
        _, start = cycle.next_segment_of_kind(SegmentKind.INDEX, session.position)
        segment = cycle.segment_at(start)
        reception = session.receive_segment(segment.name)
        needed = self.scheme.needed_index_packets(query.source_region, query.target_region)
        lost_needed = sorted(set(reception.lost_offsets) & needed)
        attempts = 0
        while lost_needed and attempts < 50:
            attempts += 1
            # Wait for the next index copy and re-receive only the needed
            # packets that were lost.
            _, start = cycle.next_segment_of_kind(SegmentKind.INDEX, session.position)
            next_copy = cycle.segment_at(start)
            retry = session.receive_segment_packets(next_copy.name, lost_needed)
            lost_needed = sorted(set(retry.lost_offsets) & needed)
