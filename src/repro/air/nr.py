"""The Next Region (NR) method (paper Section 5).

NR performs the same border-node pre-computation as EB, but instead of one
global index it broadcasts a small *local* index ``Am`` immediately before
every region ``Rm``'s data.  Cell ``Am[Ri][Rj]`` names the next region in the
broadcast cycle (at or after ``Rm``) that is needed for a shortest path from
``Ri`` to ``Rj`` -- "needed" meaning it is traversed by some pre-computed
shortest path between border nodes of ``Ri`` and ``Rj`` (or is ``Ri``/``Rj``
itself).  The client therefore never has to know the whole needed set in
advance: it follows the chain of next-region pointers, receiving regions as
they come, and stops when a pointer names a region it already possesses
(Algorithm 2).

Because each local index is tiny and no global index is replicated, NR's
cycle is barely longer than Dijkstra's, while the client receives only a
subset of regions -- the paper's best method on tuning time, memory, and
(somewhat surprisingly) access latency.

Packet loss (Section 6.2): only one cell is needed from each ``Am``, so a
lost index packet rarely matters; when it does, the client receives region
``Rm`` anyway and resolves the chain from the following index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.air.base import AirClient, ClientOptions, QueryResult
from repro.air.registry import register_scheme
from repro.air.region_scheme import RegionQuery, RegionScheme
from repro.broadcast.channel import ClientSession
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.metrics import MemoryTracker
from repro.broadcast.packet import PACKET_PAYLOAD_BYTES, Segment, SegmentKind, packets_for_bytes

__all__ = ["NextRegionScheme", "NextRegionClient", "NRParams"]


@dataclass(frozen=True)
class NRParams:
    """Tunable knobs of the Next Region method."""

    num_regions: int = 32


@register_scheme(
    "NR",
    params=NRParams,
    description="Next Region: per-region local indexes, chain following (Section 5)",
    config_map={"num_regions": "eb_nr_regions"},
)
class NextRegionScheme(RegionScheme):
    """Server side of NR: shared pre-computation plus per-region local indexes."""

    def _configure(self, num_regions: int) -> None:
        self.num_regions = num_regions
        #: Informational content of one local index (what the client stores).
        self.local_index_bytes = self.layout.nr_local_index_bytes(num_regions)
        self._header_packets = packets_for_bytes(self.layout.kd_split_bytes(num_regions))
        self._cells_per_packet = self.layout.nr_cells_per_packet()
        cell_packets = -(-(num_regions * num_regions) // self._cells_per_packet)
        self.local_index_packets = self._header_packets + cell_packets
        #: On-air size of one local index (header and cell packets are not
        #: shared, so the client can address the cell it needs directly).
        self.local_index_air_bytes = self.local_index_packets * PACKET_PAYLOAD_BYTES

    # ------------------------------------------------------------------
    # Index semantics
    # ------------------------------------------------------------------
    def _needed_regions(self, source_region: int, target_region: int) -> List[int]:
        return self.precomputation.needed_regions_nr(source_region, target_region)

    def next_region_after(
        self, index_region: int, source_region: int, target_region: int
    ) -> int:
        """Value of cell ``A^index_region[source_region][target_region]``.

        The first needed region at or after ``index_region`` in broadcast
        (cyclic) order.
        """
        needed = self.needed_regions(source_region, target_region)
        best_region = needed[0]
        best_offset = (best_region - index_region) % self.num_regions
        for region in needed:
            offset = (region - index_region) % self.num_regions
            if offset < best_offset:
                best_offset = offset
                best_region = region
        return best_region

    def cell_packet_offset(self, source_region: int, target_region: int) -> int:
        """Packet offset, within a local index segment, of cell (Rs, Rt)."""
        flat = source_region * self.num_regions + target_region
        return self._header_packets + flat // self._cells_per_packet

    def header_packet_offsets(self) -> List[int]:
        """Packet offsets carrying the kd splitting values."""
        return list(range(self._header_packets))

    # ------------------------------------------------------------------
    # Cycle construction
    # ------------------------------------------------------------------
    def build_cycle(self) -> BroadcastCycle:
        segments: List[Segment] = []
        for region, data in enumerate(self._region_segments()):
            segments.append(
                Segment(
                    name=f"nr-index-{region}",
                    kind=SegmentKind.LOCAL_INDEX,
                    size_bytes=self.local_index_air_bytes,
                    region=region,
                    payload={"index_region": region},
                )
            )
            segments.extend(data)
        return BroadcastCycle(segments, name="NR-cycle")

    # ------------------------------------------------------------------
    # Client
    # ------------------------------------------------------------------
    def _make_client(self, options: ClientOptions) -> "NextRegionClient":
        return NextRegionClient(self, options=options)


class NextRegionClient(AirClient):
    """Client side of NR: Algorithm 2 with loss handling and Section 6.1 mode."""

    scheme: NextRegionScheme

    def process(
        self, source: int, target: int, session: ClientSession, memory: MemoryTracker
    ) -> QueryResult:
        scheme = self.scheme

        # Step 1: read the packet currently on the air (pointer to the
        # subsequent local index).
        session.receive_one_packet()

        # Step 2: receive the next local index in full -- the client needs the
        # kd splits to map the query endpoints to regions, plus one cell.
        query = RegionQuery(self, source, target, session, memory)
        first_index_region = self._receive_first_index(query)
        memory.allocate(scheme.local_index_bytes)

        # Step 3: follow the chain of next-region pointers; lost region
        # packets are recovered after the chain finishes (Section 6.2), so a
        # loss never stalls the chain for a cycle.
        next_region = self._next_region(query, first_index_region)
        iterations = 0
        while next_region not in query.regions and iterations <= scheme.num_regions + 1:
            iterations += 1
            query.receive_region(next_region)
            # Read the local index adjacent to the region just received to
            # learn the next needed region.
            next_region = self._read_next_pointer(
                query, (next_region + 1) % scheme.num_regions
            )

        # Step 4: compute the shortest path over the received data.
        return query.finish()

    # ------------------------------------------------------------------
    # Index reception
    # ------------------------------------------------------------------
    def _next_region(self, query: RegionQuery, index_region: int) -> int:
        return self.scheme.next_region_after(
            index_region, query.source_region, query.target_region
        )

    def _receive_first_index(self, query: RegionQuery) -> int:
        """Receive the next local index fully; returns its region number."""
        session = query.session
        cycle = session.cycle
        scheme = self.scheme
        needed = set(scheme.header_packet_offsets())
        needed.add(scheme.cell_packet_offset(query.source_region, query.target_region))
        attempts = 0
        while True:
            segment, _ = cycle.next_segment_of_kind(SegmentKind.LOCAL_INDEX, session.position)
            reception = session.receive_segment(segment.name)
            if not (set(reception.lost_offsets) & needed) or attempts >= 50:
                return segment.payload["index_region"]
            # A needed packet of this index was lost: move on to the next
            # local index (they are broadcast before every region).
            attempts += 1

    def _read_next_pointer(self, query: RegionQuery, index_region: int) -> int:
        """Read cell (Rs, Rt) of local index ``A^index_region``.

        On packet loss the client cannot skip ahead (it cannot tell whether
        the adjacent region is needed), so it receives that region as well
        and consults the following index -- exactly the Section 6.2 recovery.
        """
        scheme = self.scheme
        cell_offset = scheme.cell_packet_offset(query.source_region, query.target_region)
        current_index_region = index_region
        attempts = 0
        while attempts <= scheme.num_regions:
            attempts += 1
            name = f"nr-index-{current_index_region}"
            reception = query.session.receive_segment_packets(name, [cell_offset])
            if not reception.lost_offsets:
                return self._next_region(query, current_index_region)
            # Lost: receive the adjacent region anyway and try the next index.
            if current_index_region not in query.regions:
                query.receive_region(current_index_region)
            current_index_region = (current_index_region + 1) % scheme.num_regions
        return self._next_region(query, current_index_region)
