"""HiTi index (paper Section 2.1, [Jung & Pramanik 2002]).

The network is partitioned (here: by the same kd-tree used for EB/NR); the
resulting sub-graphs are recursively grouped pairwise into higher-level
sub-graphs, forming a tree.  For every sub-graph at every level, the shortest
path distances among its border nodes are pre-computed and stored as
*super-edges*.  Because the kd-tree numbers leaf regions left-to-right, the
level-``k`` sub-graph containing leaf ``r`` is simply the contiguous block of
``2**k`` leaves around it, which is exactly the kd subtree rooted ``k``
levels above the leaf.

Super-edges at level ``k`` are computed on the overlay graph made of the two
children's super-edges plus the original edges crossing between the children
-- the bottom-up construction of the original HiTi paper.

For point-to-point queries this module uses the flat level-0 overlay (source
and target regions in full detail, every other region replaced by its
super-edges).  That is a documented simplification of HiTi's hierarchical
search-graph selection: it returns the same distances and keeps the index
contents (and hence its broadcast size, the quantity the paper evaluates)
identical.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.network.algorithms.kernel import KernelArena
from repro.network.algorithms.paths import INFINITY, PathResult
from repro.network.csr import CSRGraph
from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning

__all__ = ["HiTiIndex", "HiTiSubgraph"]

#: Bytes per stored super-edge: two 4-byte node ids plus a 4-byte distance.
BYTES_PER_SUPER_EDGE = 12


@dataclass
class HiTiSubgraph:
    """One sub-graph of the HiTi hierarchy.

    Attributes
    ----------
    level:
        0 for leaf regions, increasing toward the root.
    regions:
        The leaf regions this sub-graph covers (contiguous block).
    border_nodes:
        Nodes of the sub-graph with at least one neighbor outside it.
    super_edges:
        ``(from_border, to_border) -> shortest distance within the sub-graph``.
    """

    level: int
    regions: Tuple[int, ...]
    border_nodes: List[int] = field(default_factory=list)
    super_edges: Dict[Tuple[int, int], float] = field(default_factory=dict)


class HiTiIndex:
    """Hierarchical super-edge index over a kd partitioning."""

    def __init__(self, network: RoadNetwork, partitioning: Partitioning) -> None:
        self.network = network
        self.partitioning = partitioning
        self.num_regions = partitioning.num_regions
        #: ``levels[k]`` maps the first leaf region of a block to its sub-graph.
        self.levels: List[Dict[int, HiTiSubgraph]] = []
        self.precomputation_seconds = 0.0
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        started = time.perf_counter()

        # Level 0: one sub-graph per leaf region, super-edges computed on the
        # induced sub-network of the region.
        self.levels.append(
            {region: self._build_leaf(region) for region in range(self.num_regions)}
        )

        # Higher levels: merge contiguous pairs of blocks.
        block = 1
        while block < self.num_regions:
            block *= 2
            level_index = len(self.levels)
            self.levels.append(
                {
                    first: self._build_block(level_index, first, block)
                    for first in range(0, self.num_regions, block)
                }
            )
        self.precomputation_seconds = time.perf_counter() - started

    def _build_leaf(self, region: int) -> HiTiSubgraph:
        """(Re)compute the level-0 sub-graph of one leaf region."""
        nodes = self.partitioning.nodes_in_region(region)
        keep = set(nodes)
        subgraph = HiTiSubgraph(level=0, regions=(region,))
        subgraph.border_nodes = self.partitioning.border_nodes(region)
        # The induced adjacency, filtered straight off the network's spans
        # (same per-node edge order as materializing a subgraph, without
        # building one).
        neighbors = self.network.adjacency()
        adjacency = {
            n: [(t, w) for t, w in neighbors[n] if t in keep] for n in nodes
        }
        subgraph.super_edges = self._all_pairs_border_distances(
            adjacency=adjacency,
            border_nodes=subgraph.border_nodes,
        )
        return subgraph

    def _build_block(self, level_index: int, first: int, block: int) -> HiTiSubgraph:
        """(Re)compute the level-``level_index`` block starting at leaf ``first``."""
        previous = self.levels[level_index - 1]
        left = previous[first]
        right = previous[first + block // 2]
        covered = set(left.regions) | set(right.regions)
        merged = HiTiSubgraph(level=level_index, regions=tuple(sorted(covered)))
        merged.border_nodes = [
            node
            for node in left.border_nodes + right.border_nodes
            if self._is_border_of(node, covered)
        ]
        overlay = self._overlay_adjacency(
            left, right, covered, self.partitioning.region_of
        )
        merged.super_edges = self._all_pairs_border_distances(
            adjacency=overlay, border_nodes=merged.border_nodes
        )
        return merged

    # ------------------------------------------------------------------
    # Build/serve split: separable state
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """The hierarchy as plain values (see :mod:`repro.serialize`).

        Super-edge dicts keep their insertion order -- the query overlay is
        assembled by iterating them, so order is part of the bit-identity
        contract.
        """
        return {
            "levels": [
                {
                    first: {
                        "level": subgraph.level,
                        "regions": list(subgraph.regions),
                        "border_nodes": list(subgraph.border_nodes),
                        "super_edges": subgraph.super_edges,
                    }
                    for first, subgraph in level.items()
                }
                for level in self.levels
            ],
            "seconds": self.precomputation_seconds,
        }

    @classmethod
    def from_state(
        cls, network: RoadNetwork, partitioning: Partitioning, state: Dict[str, Any]
    ) -> "HiTiIndex":
        """Reconstruct from :meth:`state` output without recomputing levels."""
        self = object.__new__(cls)
        self.network = network
        self.partitioning = partitioning
        self.num_regions = partitioning.num_regions
        self.levels = [
            {
                first: HiTiSubgraph(
                    level=entry["level"],
                    regions=tuple(entry["regions"]),
                    border_nodes=list(entry["border_nodes"]),
                    super_edges={
                        tuple(key): value
                        for key, value in entry["super_edges"].items()
                    },
                )
                for first, entry in level.items()
            }
            for level in state["levels"]
        ]
        self.precomputation_seconds = state["seconds"]
        return self

    def refresh(self, dirty_regions: Set[int]) -> int:
        """Recompute only the sub-graphs covering a dirty leaf region.

        Valid for weight-only mutations of the underlying network (border
        sets depend on structure alone, so they are unchanged): a changed
        edge is internal to exactly the sub-graphs whose covered region set
        contains both endpoints' regions, and every such block contains a
        dirty region.  Untouched blocks see bit-identical inputs, so the
        refreshed hierarchy equals a from-scratch build.  Returns the number
        of sub-graphs recomputed.
        """
        recomputed = 0
        for region in sorted(dirty_regions):
            self.levels[0][region] = self._build_leaf(region)
            recomputed += 1
        block = 1
        level_index = 0
        while block < self.num_regions:
            block *= 2
            level_index += 1
            for first in range(0, self.num_regions, block):
                if dirty_regions.isdisjoint(range(first, first + block)):
                    continue
                self.levels[level_index][first] = self._build_block(
                    level_index, first, block
                )
                recomputed += 1
        return recomputed

    def _is_border_of(self, node: int, covered_regions: Set[int]) -> bool:
        """Is ``node`` adjacent to any node outside ``covered_regions``?"""
        region_of = self.partitioning.region_of
        for neighbor, _ in self.network.neighbors(node) + self.network.in_neighbors(node):
            if region_of(neighbor) not in covered_regions:
                return True
        return False

    def _overlay_adjacency(
        self,
        left: HiTiSubgraph,
        right: HiTiSubgraph,
        covered: Set[int],
        region_of,
    ) -> Dict[int, List[Tuple[int, float]]]:
        """Overlay graph of the two children: super-edges + crossing edges."""
        adjacency: Dict[int, List[Tuple[int, float]]] = {}

        def add(u: int, v: int, w: float) -> None:
            adjacency.setdefault(u, []).append((v, w))
            adjacency.setdefault(v, [])

        for child in (left, right):
            for (u, v), w in child.super_edges.items():
                add(u, v, w)
        # Original edges between the two children's nodes (crossing edges).
        child_regions = {"left": set(left.regions), "right": set(right.regions)}
        for child, other in ((left, child_regions["right"]), (right, child_regions["left"])):
            for border in child.border_nodes:
                for neighbor, weight in self.network.neighbors(border):
                    if region_of(neighbor) in other:
                        add(border, neighbor, weight)
        return adjacency

    @staticmethod
    def _all_pairs_border_distances(
        adjacency: Dict[int, List[Tuple[int, float]]], border_nodes: List[int]
    ) -> Dict[Tuple[int, int], float]:
        """Shortest distances between all ordered border pairs on ``adjacency``.

        The overlay is compiled to a small CSR once, then one arena runs an
        early-terminating multi-target kernel search per border source over
        it -- the index-addressed buffers replace per-edge dict hashing, and
        distance labels of settled targets are tie-independent, so the
        super-edges are bit-identical to the previous dict Dijkstra's.
        """
        if not border_nodes:
            return {}
        csr = CSRGraph.from_adjacency(
            adjacency, extra_nodes=border_nodes, name="hiti-overlay"
        )
        arena = KernelArena(csr)
        targets = set(border_nodes)
        super_edges: Dict[Tuple[int, int], float] = {}
        for source in border_nodes:
            result = arena.multi_target(source, targets)
            distance_to = result.distance_to
            for target in border_nodes:
                if target == source:
                    continue
                distance = distance_to(target)
                if distance != INFINITY:
                    super_edges[(source, target)] = distance
        return super_edges

    # ------------------------------------------------------------------
    # Query (flat overlay; see module docstring)
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> PathResult:
        """Shortest path distance using the super-edge overlay.

        The returned :class:`PathResult` carries the correct distance; its
        ``path`` contains the overlay nodes only (region-interior detail of
        intermediate regions is collapsed into super-edges), mirroring what a
        HiTi client materializes before expanding super-edges.
        """
        source_region = self.partitioning.region_of(source)
        target_region = self.partitioning.region_of(target)
        region_of = self.partitioning.region_of

        adjacency: Dict[int, List[Tuple[int, float]]] = {}

        def add(u: int, v: int, w: float) -> None:
            adjacency.setdefault(u, []).append((v, w))
            adjacency.setdefault(v, [])

        detailed = {source_region, target_region}
        # Full detail inside the source and target regions.
        for region in detailed:
            for node in self.partitioning.nodes_in_region(region):
                adjacency.setdefault(node, [])
                for neighbor, weight in self.network.neighbors(node):
                    if region_of(neighbor) == region:
                        add(node, neighbor, weight)
        # Super-edges for every other region.
        for region in range(self.num_regions):
            if region in detailed:
                continue
            for (u, v), w in self.levels[0][region].super_edges.items():
                add(u, v, w)
        # Crossing (border) edges between regions.
        for edge_source, edge_target, weight in self.network.edge_tuples():
            if region_of(edge_source) != region_of(edge_target):
                add(edge_source, edge_target, weight)

        distances, predecessors, settled = _dijkstra_with_predecessors(
            adjacency, source, target
        )
        distance = distances.get(target, INFINITY)
        path: List[int] = []
        if distance != INFINITY:
            node = target
            while node is not None:
                path.append(node)
                node = predecessors.get(node)
            path.reverse()
        return PathResult(
            source=source, target=target, distance=distance, path=path, settled=settled
        )

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def num_super_edges(self) -> int:
        """Total number of super-edges stored across all levels."""
        return sum(
            len(subgraph.super_edges)
            for level in self.levels
            for subgraph in level.values()
        )

    def size_bytes(self) -> int:
        """Total bytes of pre-computed super-edge information."""
        return self.num_super_edges() * BYTES_PER_SUPER_EDGE


def _dijkstra_with_predecessors(
    adjacency: Dict[int, List[Tuple[int, float]]], source: int, target: int
):
    """Dijkstra over a raw adjacency dict returning predecessors as well."""
    distances: Dict[int, float] = {source: 0.0}
    predecessors: Dict[int, int] = {}
    settled: Set[int] = set()
    heap = [(0.0, source)]
    settled_count = 0
    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        settled_count += 1
        if node == target:
            break
        for neighbor, weight in adjacency.get(node, ()):
            candidate = dist + weight
            if candidate < distances.get(neighbor, INFINITY):
                distances[neighbor] = candidate
                predecessors[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return distances, predecessors, settled_count
