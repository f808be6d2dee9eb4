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

import copy as copy_module
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.air.base import AirClient, AirIndexScheme, ClientOptions, CpuTimer, QueryResult
from repro.air.registry import register_scheme
from repro.air.border_paths import BorderPathPrecomputation
from repro.air.memory_bound import (
    SuperEdgeGraph,
    compress_region,
    shortest_path_on_overlay,
)
from repro.air.packing import CellPacking, RowMajorCellPacking, SquareCellPacking
from repro.air.records import DEFAULT_LAYOUT, RecordLayout
from repro.broadcast.channel import ClientSession
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.device import DeviceProfile
from repro.broadcast.interleave import optimal_m
from repro.broadcast.metrics import MemoryTracker
from repro.broadcast.packet import Segment, SegmentKind, packets_for_bytes
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.graph import RoadNetwork
from repro.partitioning.kdtree import KDTreePartitioner, build_kdtree_partitioning
from repro.serialize.graphs import partitioning_state, restore_partitioning

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
class EllipticBoundaryScheme(AirIndexScheme):
    """Server side of EB: pre-computation and broadcast cycle layout."""

    short_name = "EB"
    supports_memory_bound = True

    def __init__(
        self,
        network: RoadNetwork,
        num_regions: int = 32,
        layout: RecordLayout = DEFAULT_LAYOUT,
        square_packing: bool = True,
    ) -> None:
        super().__init__(network, layout)
        self._configure(num_regions=num_regions, square_packing=square_packing)
        self._build_state()

    def _configure(self, num_regions: int = 32, square_packing: bool = True) -> None:
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
        from repro.broadcast.packet import PACKET_PAYLOAD_BYTES

        self.index_air_bytes = self.index_packets * PACKET_PAYLOAD_BYTES

    def _build_state(self) -> None:
        self.partitioning = build_kdtree_partitioning(self.network, self.num_regions)
        self.precomputation = BorderPathPrecomputation(self.network, self.partitioning)
        self.precomputation_seconds = self.precomputation.precomputation_seconds

    def _artifact_state(self) -> dict:
        return {
            "partitioning": partitioning_state(self.partitioning),
            "border_paths": self.precomputation.state(),
        }

    def _restore_state(self, state: dict) -> None:
        self.partitioning = restore_partitioning(self.network, state["partitioning"])
        self.precomputation = BorderPathPrecomputation.from_state(
            self.network, self.partitioning, state["border_paths"]
        )

    # ------------------------------------------------------------------
    # Cycle construction
    # ------------------------------------------------------------------
    def build_cycle(self) -> BroadcastCycle:
        region_groups = self._region_data_groups()
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

    # ------------------------------------------------------------------
    # Incremental maintenance (dynamic networks)
    # ------------------------------------------------------------------
    def incremental_rebuild(self, network: RoadNetwork, delta) -> bool:
        """Refresh the shared border-path pre-computation, then re-lay the cycle.

        The expensive part of an EB rebuild is the border-to-border
        pre-computation, which re-runs only the affected border sources
        (the kd partitioning depends on coordinates alone, so a weight-only
        delta keeps it).  The cycle itself is re-laid from scratch: its
        interleaving (index copy placement) depends on the new cross/local
        splits globally and costs a negligible fraction of one pre-compute.
        """
        if network is not self.network or delta.structural:
            return False
        started = time.perf_counter()
        if delta.changes:
            self.precomputation.refresh(delta.changes)
        if self._cycle is not None:
            self._cycle = self.build_cycle()
        return self._track_refresh(started)

    def shadow_rebuild(self, network: RoadNetwork, delta) -> Optional["EllipticBoundaryScheme"]:
        """Refresh into a structurally shared shadow instead of in place.

        Same strategy as NR's override: the clone shares the kd
        partitioning with the serving instance and repairs its own copy of
        the border-path block (:meth:`BorderPathPrecomputation.shadow`), so the
        serving instance's index array ``A`` and region splits stay frozen
        at their pre-delta values until the engine swaps the shadow in.
        """
        if network is not self.network or delta.structural:
            return None
        clone = copy_module.copy(self)
        clone.precomputation = self.precomputation.shadow()
        if clone.incremental_rebuild(network, delta):
            return clone
        return None

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

    def _region_data_groups(self) -> List[List[Segment]]:
        """Per-region [cross-border segment, local segment] pairs, in order."""
        groups: List[List[Segment]] = []
        for region in range(self.num_regions):
            cross_nodes = self.precomputation.cross_border_in_region(region)
            local_nodes = self.precomputation.local_in_region(region)
            group = [
                Segment(
                    name=f"region-{region}-cross",
                    kind=SegmentKind.REGION_CROSS_BORDER,
                    size_bytes=self.layout.adjacency_bytes(self.network, cross_nodes),
                    region=region,
                    payload={"nodes": cross_nodes},
                ),
                Segment(
                    name=f"region-{region}-local",
                    kind=SegmentKind.REGION_LOCAL,
                    size_bytes=self.layout.adjacency_bytes(self.network, local_nodes),
                    region=region,
                    payload={"nodes": local_nodes},
                ),
            ]
            groups.append(group)
        return groups

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
        locator = self.partitioning.locator
        if isinstance(locator, KDTreePartitioner):
            return locator.splitting_values()
        return []

    # ------------------------------------------------------------------
    # Client
    # ------------------------------------------------------------------
    def _make_client(self, options: ClientOptions) -> "EllipticBoundaryClient":
        return EllipticBoundaryClient(self, options=options)


class EllipticBoundaryClient(AirClient):
    """Client side of EB: Algorithm 1 with loss handling and Section 6.1 mode."""

    scheme: EllipticBoundaryScheme

    def __init__(
        self,
        scheme: EllipticBoundaryScheme,
        device: Optional[DeviceProfile] = None,
        options: Optional[ClientOptions] = None,
    ) -> None:
        super().__init__(scheme, device, options)
        self.memory_bound = self.options.memory_bound

    # ------------------------------------------------------------------
    # Query protocol
    # ------------------------------------------------------------------
    def process(
        self, source: int, target: int, session: ClientSession, memory: MemoryTracker
    ) -> QueryResult:
        scheme = self.scheme
        cycle = session.cycle

        # Step 1: read the packet currently on the air; it carries the offset
        # of the next index copy.
        session.receive_one_packet()

        # Step 2: receive the next index copy in full.
        source_region = scheme.partitioning.region_of(source)
        target_region = scheme.partitioning.region_of(target)
        self._receive_index(session, source_region, target_region)
        memory.allocate(scheme.index_bytes)

        # Step 3: decide which regions are needed (the "network ellipse").
        needed_regions = scheme.precomputation.needed_regions_eb(
            source_region, target_region
        )

        # Step 4: receive the needed region segments in broadcast order.
        wanted_segments: List[str] = []
        for region in needed_regions:
            wanted_segments.append(f"region-{region}-cross")
            if region in (source_region, target_region):
                wanted_segments.append(f"region-{region}-local")
        ordered = sorted(
            wanted_segments,
            key=lambda name: (cycle.segment_start(name) - session.position)
            % cycle.total_packets,
        )

        received_nodes: Set[int] = set()
        overlay = SuperEdgeGraph()
        region_nodes: Dict[int, Set[int]] = {}
        pending_retries: List[Tuple[str, List[int]]] = []
        cpu = CpuTimer(self.device)
        for name in ordered:
            segment = cycle.segment(name)
            reception = session.receive_segment(name)
            if reception.lost_offsets:
                # Defer recovery: keep receiving the remaining regions this
                # cycle and fetch the missing packets afterwards (Section 6.2).
                pending_retries.append((name, list(reception.lost_offsets)))
            memory.allocate(segment.size_bytes)
            nodes = segment.payload["nodes"]
            received_nodes.update(nodes)
            region_nodes.setdefault(segment.region, set()).update(nodes)
            if self.memory_bound and segment.region not in (source_region, target_region):
                # Compress the intermediate region right away and release it.
                with cpu:
                    before = overlay.size_bytes
                    compress_region(
                        overlay,
                        scheme.network,
                        region_nodes[segment.region],
                        scheme.partitioning.border_nodes(segment.region),
                        extra_terminals=(),
                        layout=scheme.layout,
                        keep_expansions=False,
                    )
                memory.allocate(overlay.size_bytes - before)
                memory.release(segment.size_bytes)

        # Recover any region packets lost during the first pass; adjacency
        # data must be complete before the local search.
        attempts = 0
        while pending_retries and attempts < 50:
            attempts += 1
            still_pending: List[Tuple[str, List[int]]] = []
            for name, offsets in pending_retries:
                retry = session.receive_segment_packets(name, offsets)
                if retry.lost_offsets:
                    still_pending.append((name, list(retry.lost_offsets)))
            pending_retries = still_pending

        # Step 5: compute the shortest path locally.
        if self.memory_bound:
            with cpu:
                for region in sorted({source_region, target_region}):
                    terminals = []
                    if region == source_region:
                        terminals.append(source)
                    if region == target_region:
                        terminals.append(target)
                    before = overlay.size_bytes
                    compress_region(
                        overlay,
                        scheme.network,
                        region_nodes.get(region, set()),
                        scheme.partitioning.border_nodes(region),
                        extra_terminals=terminals,
                        layout=scheme.layout,
                        expansion_terminals=terminals,
                    )
                    memory.allocate(overlay.size_bytes - before)
                    # The raw region data are no longer needed once compressed.
                    memory.release(
                        cycle.segment(f"region-{region}-cross").size_bytes
                        + cycle.segment(f"region-{region}-local").size_bytes
                    )
                distance, path, settled = shortest_path_on_overlay(
                    overlay, source, target
                )
        else:
            with cpu:
                # Masked kernel search over the network's CSR snapshot
                # restricted to the received nodes: same answers (and settled
                # count) as Dijkstra on the induced subgraph, without
                # materializing a RoadNetwork per query.
                local = shortest_path(
                    scheme.network, source, target, allowed=received_nodes
                )
                distance, path, settled = local.distance, local.path, local.settled
            memory.allocate(_working_set_bytes(scheme, len(received_nodes)))

        result = QueryResult(
            source=source,
            target=target,
            distance=distance,
            path=path,
            received_regions=needed_regions,
        )
        result.metrics.cpu_seconds = cpu.seconds
        result.metrics.extra["settled_nodes"] = float(settled)
        result.metrics.extra["needed_regions"] = float(len(needed_regions))
        return result

    # ------------------------------------------------------------------
    # Reception helpers
    # ------------------------------------------------------------------
    def _receive_index(
        self, session: ClientSession, source_region: int, target_region: int
    ) -> None:
        """Receive the next index copy, recovering needed packets if lost."""
        cycle = session.cycle
        scheme = self.scheme
        _, start = cycle.next_segment_of_kind(SegmentKind.INDEX, session.position)
        segment = cycle.segment_at(start)
        reception = session.receive_segment(segment.name)
        needed = scheme.needed_index_packets(source_region, target_region)
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

def _working_set_bytes(scheme: EllipticBoundaryScheme, num_nodes: int) -> int:
    """Search structures (distance map, heap) over the received sub-network."""
    per_node = 3 * scheme.layout.distance_bytes + scheme.layout.node_id_bytes
    return num_nodes * per_node
