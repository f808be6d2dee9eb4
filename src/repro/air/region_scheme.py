"""What EB and NR share: border-path regions on the air (paper Sections 4-5).

NR "performs the same border-node pre-computation as EB" (Section 5), and
the two clients work the same way: each receives only the cross-border
segment of an intermediate region and the whole of the source and target
regions, then runs Dijkstra over what it received.  The schemes differ only
in their index protocol -- EB's global ``A`` index with (1, m) copies and
ellipse pruning, NR's chain of local indexes -- which stays in ``eb.py`` and
``nr.py``.  This module holds the rest:

* server side, :class:`RegionScheme`: the kd partitioning and the
  border-path pre-computation (build, artifact state, restore), the
  per-region cross-border/local data segments, the incremental refresh and
  the structurally shared shadow rebuild;
* client side, :class:`RegionQuery`: one query's received regions --
  receiving a region's segments, the Section 6.1 compression of an
  intermediate region as soon as it is received, deferred recovery of lost
  region packets (Section 6.2), and the final search over either the
  super-edge overlay or the received nodes.
"""

from __future__ import annotations

import abc
import copy
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.air.base import AirClient, AirIndexScheme, CpuTimer, QueryResult
from repro.air.border_paths import BorderPathPrecomputation
from repro.air.memory_bound import (
    SuperEdgeGraph,
    compress_region,
    shortest_path_on_overlay,
)
from repro.broadcast.channel import ClientSession
from repro.broadcast.metrics import MemoryTracker
from repro.broadcast.packet import Segment, SegmentKind
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.graph import RoadNetwork
from repro.partitioning.kdtree import build_kdtree_partitioning
from repro.serialize.graphs import partitioning_state, restore_partitioning

__all__ = ["RegionScheme", "RegionQuery"]


class RegionScheme(AirIndexScheme):
    """Server side shared by EB and NR: regions, border paths, data segments.

    Subclasses set ``num_regions`` in ``_configure``, lay out their cycle
    in ``build_cycle`` from :meth:`_region_segments`, and name the regions a
    query needs in :meth:`_needed_regions`.
    """

    supports_memory_bound = True
    num_regions: int

    def _build_state(self) -> None:
        self.partitioning = build_kdtree_partitioning(self.network, self.num_regions)
        self.precomputation = BorderPathPrecomputation(self.network, self.partitioning)
        self.precomputation_seconds = self.precomputation.precomputation_seconds
        self._needed_cache: Dict[Tuple[int, int], List[int]] = {}

    def _artifact_state(self) -> dict:
        return {
            "partitioning": partitioning_state(self.partitioning),
            "border_paths": self.precomputation.state(),
        }

    @classmethod
    def _serving_state(cls, state: dict) -> dict:
        # The border-path block is what a refresh repairs; queries read the
        # aggregates alone (Sections 4-5: the clients see only those).
        return {
            **state,
            "border_paths": BorderPathPrecomputation.serving_state(state["border_paths"]),
        }

    def _restore_state(self, state: dict) -> None:
        self.partitioning = restore_partitioning(self.network, state["partitioning"])
        self.precomputation = BorderPathPrecomputation.from_state(
            self.network, self.partitioning, state["border_paths"]
        )
        self._needed_cache = {}

    # ------------------------------------------------------------------
    # Index semantics
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _needed_regions(self, source_region: int, target_region: int) -> List[int]:
        """The scheme's needed-region rule (uncached)."""

    def needed_regions(self, source_region: int, target_region: int) -> List[int]:
        """Regions required for queries between the two regions (cached)."""
        key = (source_region, target_region)
        needed = self._needed_cache.get(key)
        if needed is None:
            needed = self._needed_cache[key] = self._needed_regions(
                source_region, target_region
            )
        return needed

    # ------------------------------------------------------------------
    # Cycle construction
    # ------------------------------------------------------------------
    def _region_segments(self) -> List[List[Segment]]:
        """Per region, its cross-border and local data segments, in that
        order; every segment's bytes come from one array pass.

        Record sizes are purely structural (degree-based), so on a refresh a
        segment of the current cycle whose node list is unchanged is already
        correct and is reused as it is.
        """
        slots = [
            (region, suffix, kind)
            for region in range(self.num_regions)
            for suffix, kind in (
                ("cross", SegmentKind.REGION_CROSS_BORDER),
                ("local", SegmentKind.REGION_LOCAL),
            )
        ]
        groups = [
            nodes
            for region in range(self.num_regions)
            for nodes in (
                self.precomputation.cross_border_in_region(region),
                self.precomputation.local_in_region(region),
            )
        ]
        sizes = self.layout.grouped_adjacency_bytes(self.network, groups)
        segments: List[List[Segment]] = [[] for _ in range(self.num_regions)]
        for (region, suffix, kind), nodes, size in zip(slots, groups, sizes):
            name = f"region-{region}-{suffix}"
            if self._cycle is not None:
                previous = self._cycle.segment(name)
                if previous.payload["nodes"] == nodes:
                    segments[region].append(previous)
                    continue
            segments[region].append(
                Segment(
                    name=name,
                    kind=kind,
                    size_bytes=size,
                    region=region,
                    payload={"nodes": nodes},
                )
            )
        return segments

    # ------------------------------------------------------------------
    # Incremental maintenance (dynamic networks)
    # ------------------------------------------------------------------
    def shadow_rebuild(self, network: RoadNetwork, delta) -> Optional["RegionScheme"]:
        """Repair the border-path pre-computation, then re-lay the cycle.

        A weight-only delta cannot move the kd partitioning (it depends on
        coordinates alone), so the replacement shares the partitioning with
        this instance and repairs its own copy of the border-path block
        (:meth:`BorderPathPrecomputation.shadow`): the shared pre-computation
        re-runs only the border sources whose shortest path trees a change
        could touch.  The cycle is re-laid from the repaired state; a
        region's data segments are re-packed only when its cross-border
        membership changed (:meth:`_region_segments`).  Structural deltas
        fall back to a full rebuild.
        """
        if network is not self.network or delta.structural:
            return None
        started = time.perf_counter()
        clone = copy.copy(self)
        clone._needed_cache = {}
        if delta.changes:
            clone.precomputation = self.precomputation.shadow()
            clone.precomputation.refresh(delta.changes)
        if self._cycle is not None:
            clone._cycle = clone.build_cycle()
        return clone._track_refresh(started)


class RegionQuery:
    """One query's received regions on an EB or NR client.

    The scheme's index protocol decides which regions to receive and calls
    :meth:`receive_region` for each, in the order they are received;
    :meth:`finish` then recovers lost packets, searches, and builds the
    :class:`QueryResult`.  In the Section 6.1 memory-bound mode an
    intermediate region is compressed into super-edges the moment it is
    received, and its raw data are released.
    """

    def __init__(
        self,
        client: AirClient,
        source: int,
        target: int,
        session: ClientSession,
        memory: MemoryTracker,
    ) -> None:
        scheme: RegionScheme = client.scheme
        self.scheme = scheme
        self.source = source
        self.target = target
        self.session = session
        self.memory = memory
        self.source_region = scheme.partitioning.region_of(source)
        self.target_region = scheme.partitioning.region_of(target)
        self.memory_bound = client.options.memory_bound
        self.cpu = CpuTimer(client.device)
        #: Regions received so far, in reception order.
        self.regions: List[int] = []
        self.nodes: Set[int] = set()
        self.region_nodes: Dict[int, Set[int]] = {}
        #: Region packets lost on the air, recovered in :meth:`finish`.
        self.pending: List[Tuple[str, List[int]]] = []
        self.overlay = SuperEdgeGraph()

    def segment_names(self, region: int) -> List[str]:
        """The segments received for ``region``: its cross-border segment,
        plus its local segment for the source and target regions."""
        names = [f"region-{region}-cross"]
        if region in (self.source_region, self.target_region):
            names.append(f"region-{region}-local")
        return names

    def receive_region(self, region: int) -> None:
        """Receive a region's segments, deferring lost-packet recovery."""
        cycle = self.session.cycle
        names = self.segment_names(region)
        for name in names:
            reception = self.session.receive_segment(name)
            self.pending.append((name, reception.lost_offsets))
            segment = cycle.segment(name)
            self.memory.allocate(segment.size_bytes)
            nodes = segment.payload["nodes"]
            self.nodes.update(nodes)
            self.region_nodes.setdefault(region, set()).update(nodes)
        self.regions.append(region)
        if self.memory_bound and region not in (self.source_region, self.target_region):
            # Compress the intermediate region right away and release it.
            self._compress(region)
            self.memory.release(sum(cycle.segment(name).size_bytes for name in names))

    def _compress(self, region: int, terminals: Sequence[int] = ()) -> None:
        """Compress a received region into the overlay.

        ``terminals`` are the query endpoints inside the region: a source or
        target region keeps the expansions of the super-edges incident to
        them (the detailed prefix and suffix of the path), an intermediate
        region keeps no expansion at all.
        """
        scheme = self.scheme
        with self.cpu:
            before = self.overlay.size_bytes
            compress_region(
                self.overlay,
                scheme.network,
                self.region_nodes.get(region, set()),
                scheme.partitioning.border_nodes(region),
                extra_terminals=terminals,
                layout=scheme.layout,
                keep_expansions=bool(terminals),
                expansion_terminals=terminals or None,
            )
        self.memory.allocate(self.overlay.size_bytes - before)

    def finish(self, reported_regions: Optional[List[int]] = None) -> QueryResult:
        """Recover lost packets, search what was received, build the result.

        ``reported_regions`` is what the result lists as received (the
        regions in reception order by default); the result holds a copy.
        """
        source, target = self.source, self.target
        # The adjacency data must be complete before the local search.
        self.session.recover(self.pending)
        if self.memory_bound:
            cycle = self.session.cycle
            for region in sorted({self.source_region, self.target_region}):
                terminals = [
                    node
                    for node, home in ((source, self.source_region), (target, self.target_region))
                    if home == region
                ]
                self._compress(region, terminals)
                # The raw region data are no longer needed once compressed.
                self.memory.release(
                    sum(cycle.segment(name).size_bytes for name in self.segment_names(region))
                )
            with self.cpu:
                distance, path, settled = shortest_path_on_overlay(self.overlay, source, target)
        else:
            with self.cpu:
                # Masked kernel search over the network's CSR snapshot
                # restricted to the received nodes: same answers (and settled
                # count) as Dijkstra on the induced subgraph.  One compiled
                # sweep with the outside edges weighted inf; the path walks
                # back over in-edges read from the snapshot's array buffers,
                # so a worker never builds its own tuple rows.
                local = shortest_path(self.scheme.network, source, target, allowed=self.nodes)
                distance, path, settled = local.distance, local.path, local.settled
            self.memory.allocate(self.scheme.layout.search_working_set_bytes(len(self.nodes)))
        regions = self.regions if reported_regions is None else reported_regions
        result = QueryResult(
            source=source,
            target=target,
            distance=distance,
            path=path,
            received_regions=list(regions),
        )
        result.metrics.cpu_seconds = self.cpu.seconds
        result.metrics.extra["settled_nodes"] = float(settled)
        result.metrics.extra["needed_regions"] = float(len(regions))
        return result
