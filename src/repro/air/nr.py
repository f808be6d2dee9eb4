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

import copy
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
from repro.air.records import DEFAULT_LAYOUT, RecordLayout
from repro.broadcast.channel import ClientSession
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.device import DeviceProfile
from repro.broadcast.metrics import MemoryTracker
from repro.broadcast.packet import Segment, SegmentKind, packets_for_bytes
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.graph import RoadNetwork
from repro.partitioning.kdtree import build_kdtree_partitioning
from repro.serialize.graphs import partitioning_state, restore_partitioning

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
class NextRegionScheme(AirIndexScheme):
    """Server side of NR: shared pre-computation plus per-region local indexes."""

    short_name = "NR"
    supports_memory_bound = True

    def __init__(
        self,
        network: RoadNetwork,
        num_regions: int = 32,
        layout: RecordLayout = DEFAULT_LAYOUT,
    ) -> None:
        super().__init__(network, layout)
        self._configure(num_regions=num_regions)
        self._build_state()

    def _configure(self, num_regions: int = 32) -> None:
        self.num_regions = num_regions
        #: Informational content of one local index (what the client stores).
        self.local_index_bytes = self.layout.nr_local_index_bytes(num_regions)
        self._header_packets = packets_for_bytes(self.layout.kd_split_bytes(num_regions))
        cells_per_packet = self.layout.nr_cells_per_packet()
        cell_packets = -(-(num_regions * num_regions) // cells_per_packet)
        self.local_index_packets = self._header_packets + cell_packets
        #: On-air size of one local index (header and cell packets are not
        #: shared, so the client can address the cell it needs directly).
        from repro.broadcast.packet import PACKET_PAYLOAD_BYTES

        self.local_index_air_bytes = self.local_index_packets * PACKET_PAYLOAD_BYTES
        self._needed_cache: Dict[Tuple[int, int], List[int]] = {}

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
    # Index semantics
    # ------------------------------------------------------------------
    def needed_regions(self, source_region: int, target_region: int) -> List[int]:
        """Regions required for queries between the two regions (cached)."""
        key = (source_region, target_region)
        if key not in self._needed_cache:
            self._needed_cache[key] = self.precomputation.needed_regions_nr(
                source_region, target_region
            )
        return self._needed_cache[key]

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
        cells_per_packet = self.layout.nr_cells_per_packet()
        flat = source_region * self.num_regions + target_region
        return self._header_packets + flat // cells_per_packet

    def header_packet_offsets(self) -> List[int]:
        """Packet offsets carrying the kd splitting values."""
        return list(range(self._header_packets))

    # ------------------------------------------------------------------
    # Cycle construction
    # ------------------------------------------------------------------
    def build_cycle(self) -> BroadcastCycle:
        segments: List[Segment] = []
        for region in range(self.num_regions):
            cross_nodes = self.precomputation.cross_border_in_region(region)
            local_nodes = self.precomputation.local_in_region(region)
            segments.append(
                Segment(
                    name=f"nr-index-{region}",
                    kind=SegmentKind.LOCAL_INDEX,
                    size_bytes=self.local_index_air_bytes,
                    region=region,
                    payload={"index_region": region},
                )
            )
            segments.append(
                Segment(
                    name=f"region-{region}-cross",
                    kind=SegmentKind.REGION_CROSS_BORDER,
                    size_bytes=self.layout.adjacency_bytes(self.network, cross_nodes),
                    region=region,
                    payload={"nodes": cross_nodes},
                )
            )
            segments.append(
                Segment(
                    name=f"region-{region}-local",
                    kind=SegmentKind.REGION_LOCAL,
                    size_bytes=self.layout.adjacency_bytes(self.network, local_nodes),
                    region=region,
                    payload={"nodes": local_nodes},
                )
            )
        return BroadcastCycle(segments, name="NR-cycle")

    # ------------------------------------------------------------------
    # Incremental maintenance (dynamic networks)
    # ------------------------------------------------------------------
    def incremental_rebuild(self, network: RoadNetwork, delta) -> bool:
        """Refresh the border-path pre-computation and re-pack touched segments.

        A weight-only delta cannot move the kd partitioning (it depends on
        coordinates alone), so the partitioning is kept and the shared
        pre-computation re-runs only the border sources whose shortest path
        trees a change could touch.  Cycle-wise, the per-region local-index
        segments have a fixed size and are reused; a region's cross/local
        data segments are re-packed only when its cross-border membership
        actually changed.  Structural deltas fall back to a full rebuild.
        """
        if network is not self.network or delta.structural:
            return False
        started = time.perf_counter()
        if delta.changes:
            self.precomputation.refresh(delta.changes)
            self._needed_cache.clear()
        if self._cycle is not None:
            old = self._cycle
            segments: List[Segment] = []
            for region in range(self.num_regions):
                segments.append(old.segment(f"nr-index-{region}"))
                cross_nodes = self.precomputation.cross_border_in_region(region)
                local_nodes = self.precomputation.local_in_region(region)
                for suffix, kind, nodes in (
                    ("cross", SegmentKind.REGION_CROSS_BORDER, cross_nodes),
                    ("local", SegmentKind.REGION_LOCAL, local_nodes),
                ):
                    name = f"region-{region}-{suffix}"
                    previous = old.segment(name)
                    # Record sizes are purely structural (degree-based), so a
                    # segment with an unchanged node list is already correct.
                    if previous.payload["nodes"] == nodes:
                        segments.append(previous)
                    else:
                        segments.append(
                            Segment(
                                name=name,
                                kind=kind,
                                size_bytes=self.layout.adjacency_bytes(self.network, nodes),
                                region=region,
                                payload={"nodes": nodes},
                            )
                        )
            self._cycle = BroadcastCycle(segments, name="NR-cycle")
        return self._track_refresh(started)

    def shadow_rebuild(self, network: RoadNetwork, delta) -> Optional["NextRegionScheme"]:
        """Refresh into a structurally shared shadow instead of in place.

        The clone shares the partitioning with the serving instance
        (immutable by contract) and repairs its own copy of the border-path
        block (:meth:`BorderPathPrecomputation.shadow`), so the only per-swap
        cost on top of the in-place path is one array copy.  The serving
        instance keeps answering from its pre-delta aggregates until the
        engine swaps the shadow in.
        """
        if network is not self.network or delta.structural:
            return None
        clone = copy.copy(self)
        clone.precomputation = self.precomputation.shadow()
        clone._needed_cache = {}
        if clone.incremental_rebuild(network, delta):
            return clone
        return None

    # ------------------------------------------------------------------
    # Client
    # ------------------------------------------------------------------
    def _make_client(self, options: ClientOptions) -> "NextRegionClient":
        return NextRegionClient(self, options=options)


class NextRegionClient(AirClient):
    """Client side of NR: Algorithm 2 with loss handling and Section 6.1 mode."""

    scheme: NextRegionScheme

    def __init__(
        self,
        scheme: NextRegionScheme,
        device: Optional[DeviceProfile] = None,
        options: Optional[ClientOptions] = None,
    ) -> None:
        super().__init__(scheme, device, options)
        self.memory_bound = self.options.memory_bound

    def process(
        self, source: int, target: int, session: ClientSession, memory: MemoryTracker
    ) -> QueryResult:
        scheme = self.scheme
        cycle = session.cycle
        num_regions = scheme.num_regions

        # Step 1: read the packet currently on the air (pointer to the
        # subsequent local index).
        session.receive_one_packet()

        # Step 2: receive the next local index in full -- the client needs the
        # kd splits to map the query endpoints to regions, plus one cell.
        source_region = scheme.partitioning.region_of(source)
        target_region = scheme.partitioning.region_of(target)
        first_index_region = self._receive_first_index(
            session, source_region, target_region
        )
        memory.allocate(scheme.local_index_bytes)

        # Step 3: follow the chain of next-region pointers.
        received_regions: List[int] = []
        received_set: Set[int] = set()
        received_nodes: Set[int] = set()
        region_nodes: Dict[int, Set[int]] = {}
        #: Region packets lost on the air; recovered after the chain finishes
        #: (Section 6.2) so that a loss never stalls the chain for a cycle.
        pending_retries: List[Tuple[str, List[int]]] = []
        overlay = SuperEdgeGraph()
        cpu = CpuTimer(self.device)

        next_region = scheme.next_region_after(
            first_index_region, source_region, target_region
        )
        iterations = 0
        while next_region not in received_set and iterations <= num_regions + 1:
            iterations += 1
            self._receive_region(
                session,
                memory,
                next_region,
                source_region,
                target_region,
                received_nodes,
                region_nodes,
                pending_retries,
            )
            received_set.add(next_region)
            received_regions.append(next_region)
            if self.memory_bound and next_region not in (source_region, target_region):
                with cpu:
                    before = overlay.size_bytes
                    compress_region(
                        overlay,
                        scheme.network,
                        region_nodes[next_region],
                        scheme.partitioning.border_nodes(next_region),
                        extra_terminals=(),
                        layout=scheme.layout,
                        keep_expansions=False,
                    )
                memory.allocate(overlay.size_bytes - before)
                memory.release(
                    sum(
                        cycle.segment(name).size_bytes
                        for name in self._segment_names(next_region, source_region, target_region)
                    )
                )

            # Read the local index adjacent to the region just received to
            # learn the next needed region.
            next_index_region = (next_region + 1) % num_regions
            next_region = self._read_next_pointer(
                session, next_index_region, source_region, target_region,
                memory, received_nodes, region_nodes, received_set, received_regions,
                pending_retries,
            )

        # Recover any region packets lost during the chain; the adjacency
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

        # Step 4: compute the shortest path over the received data.
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
                        sum(
                            cycle.segment(name).size_bytes
                            for name in self._segment_names(
                                region, source_region, target_region
                            )
                        )
                    )
                distance, path, settled = shortest_path_on_overlay(overlay, source, target)
        else:
            with cpu:
                # Masked kernel search over the network's CSR snapshot
                # restricted to the received nodes (bit-identical to Dijkstra
                # on the induced subgraph).
                local = shortest_path(
                    scheme.network, source, target, allowed=received_nodes
                )
                distance, path, settled = local.distance, local.path, local.settled
            per_node = 3 * scheme.layout.distance_bytes + scheme.layout.node_id_bytes
            memory.allocate(len(received_nodes) * per_node)

        result = QueryResult(
            source=source,
            target=target,
            distance=distance,
            path=path,
            received_regions=received_regions,
        )
        result.metrics.cpu_seconds = cpu.seconds
        result.metrics.extra["settled_nodes"] = float(settled)
        result.metrics.extra["needed_regions"] = float(len(received_regions))
        return result

    # ------------------------------------------------------------------
    # Reception helpers
    # ------------------------------------------------------------------
    def _segment_names(
        self, region: int, source_region: int, target_region: int
    ) -> List[str]:
        names = [f"region-{region}-cross"]
        if region in (source_region, target_region):
            names.append(f"region-{region}-local")
        return names

    def _receive_first_index(
        self, session: ClientSession, source_region: int, target_region: int
    ) -> int:
        """Receive the next local index fully; returns its region number."""
        cycle = session.cycle
        scheme = self.scheme
        attempts = 0
        while True:
            segment, _ = cycle.next_segment_of_kind(SegmentKind.LOCAL_INDEX, session.position)
            reception = session.receive_segment(segment.name)
            needed = set(scheme.header_packet_offsets())
            needed.add(scheme.cell_packet_offset(source_region, target_region))
            if not (set(reception.lost_offsets) & needed) or attempts >= 50:
                return segment.payload["index_region"]
            # A needed packet of this index was lost: move on to the next
            # local index (they are broadcast before every region).
            attempts += 1

    def _receive_region(
        self,
        session: ClientSession,
        memory: MemoryTracker,
        region: int,
        source_region: int,
        target_region: int,
        received_nodes: Set[int],
        region_nodes: Dict[int, Set[int]],
        pending_retries: List[Tuple[str, List[int]]],
    ) -> None:
        """Receive a region's data segments, deferring lost-packet recovery."""
        cycle = session.cycle
        for name in self._segment_names(region, source_region, target_region):
            reception = session.receive_segment(name)
            if reception.lost_offsets:
                pending_retries.append((name, list(reception.lost_offsets)))
            segment = cycle.segment(name)
            memory.allocate(segment.size_bytes)
            nodes = segment.payload["nodes"]
            received_nodes.update(nodes)
            region_nodes.setdefault(region, set()).update(nodes)

    def _read_next_pointer(
        self,
        session: ClientSession,
        index_region: int,
        source_region: int,
        target_region: int,
        memory: MemoryTracker,
        received_nodes: Set[int],
        region_nodes: Dict[int, Set[int]],
        received_set: Set[int],
        received_regions: List[int],
        pending_retries: List[Tuple[str, List[int]]],
    ) -> int:
        """Read cell (Rs, Rt) of local index ``A^index_region``.

        On packet loss the client cannot skip ahead (it cannot tell whether
        the adjacent region is needed), so it receives that region as well
        and consults the following index -- exactly the Section 6.2 recovery.
        """
        scheme = self.scheme
        cell_offset = scheme.cell_packet_offset(source_region, target_region)
        current_index_region = index_region
        attempts = 0
        while attempts <= scheme.num_regions:
            attempts += 1
            name = f"nr-index-{current_index_region}"
            reception = session.receive_segment_packets(name, [cell_offset])
            if not reception.lost_offsets:
                return scheme.next_region_after(
                    current_index_region, source_region, target_region
                )
            # Lost: receive the adjacent region anyway and try the next index.
            if current_index_region not in received_set:
                self._receive_region(
                    session,
                    memory,
                    current_index_region,
                    source_region,
                    target_region,
                    received_nodes,
                    region_nodes,
                    pending_retries,
                )
                received_set.add(current_index_region)
                received_regions.append(current_index_region)
            current_index_region = (current_index_region + 1) % scheme.num_regions
        return scheme.next_region_after(
            current_index_region, source_region, target_region
        )
