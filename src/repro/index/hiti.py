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
super-edges, plus every edge crossing between regions).  That is a
documented simplification of HiTi's hierarchical search-graph selection: it
returns the same distances and keeps the index contents (and hence its
broadcast size, the quantity the paper evaluates) identical.

The overlay is query-independent except for which two regions are detailed,
so it is compiled once per build, refresh and restore as two row lists in
snapshot index order: *detail* rows (a node's interior edges, then its
crossing edges) and *coarse* rows (the super-edges leaving a node of its
region, then its crossing edges).  A query copies the coarse list, swaps in
the detail rows of the source and target regions, and searches it through
the kernel's ``adjacency=`` rows.  The same interior and crossing rows feed
the leaf and block super-edge builds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

from repro.network.algorithms.kernel import adjacency_rows, arena_for, row_search
from repro.network.algorithms.paths import INFINITY, PathResult
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
        self._compile_rows()

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
        self._compose_overlay()
        self.precomputation_seconds = time.perf_counter() - started

    def _compile_rows(self) -> None:
        """Split every snapshot row into its interior and crossing edges.

        Rows hold ``(neighbor_index, weight)`` pairs in the snapshot's edge
        order.  ``_foreign[v]`` is the bitmask of the other regions ``v``
        has an edge to or from.
        """
        csr = self.network.ensure_csr()
        region_of = self.partitioning.region_of
        self._csr = csr
        self._region = region = [region_of(node_id) for node_id in csr.ids]
        self._interior = [()] * csr.num_nodes
        self._crossing = [()] * csr.num_nodes
        self._split_rows(range(csr.num_nodes))
        foreign = [0] * csr.num_nodes
        for node, outside in enumerate(self._crossing):
            own = region[node]
            for neighbor, _ in outside:
                foreign[node] |= 1 << region[neighbor]
                foreign[neighbor] |= 1 << own
        self._foreign = foreign
        index_of = csr.index_of
        self._region_nodes = [
            [index_of[node] for node in self.partitioning.nodes_in_region(region)]
            for region in range(self.num_regions)
        ]

    def _split_rows(self, nodes) -> None:
        """Recompile the interior and crossing rows of ``nodes`` (indexes)
        from the snapshot's current rows."""
        fwd_adj = self._csr.fwd_adj
        region = self._region
        interior = self._interior
        crossing = self._crossing
        for node in nodes:
            row = fwd_adj[node]
            own = region[node]
            inside = tuple(pair for pair in row if region[pair[0]] == own)
            interior[node] = inside
            if len(inside) != len(row):
                crossing[node] = tuple(pair for pair in row if region[pair[0]] != own)
            else:
                crossing[node] = ()

    def _compose_overlay(self, regions=None) -> None:
        """Assemble the detail and coarse rows from the current levels.

        A node's rows depend only on its own region's level-0 super-edges
        and its own interior and crossing rows, so ``regions`` limits the
        work to the nodes of those regions (default: every region).
        """
        if regions is None:
            regions = range(self.num_regions)
            self._detail = [()] * self._csr.num_nodes
            self._coarse = [()] * self._csr.num_nodes
        index_of = self._csr.index_of
        detail = self._detail
        coarse = self._coarse
        for region in regions:
            supers: Dict[int, List[Tuple[int, float]]] = {}
            for (u, v), w in self.levels[0][region].super_edges.items():
                supers.setdefault(index_of[u], []).append((index_of[v], w))
            for node in self._region_nodes[region]:
                inside = self._interior[node]
                outside = self._crossing[node]
                detail[node] = inside + outside if outside else inside
                out = supers.get(node)
                coarse[node] = tuple(out) + outside if out else outside

    def num_crossing_edges(self) -> int:
        """Edges whose endpoints lie in different regions."""
        return sum(len(outside) for outside in self._crossing)

    def _build_leaf(self, region: int) -> HiTiSubgraph:
        """(Re)compute the level-0 sub-graph of one leaf region."""
        subgraph = HiTiSubgraph(level=0, regions=(region,))
        subgraph.border_nodes = self.partitioning.border_nodes(region)
        # The induced adjacency is the region's interior rows (same per-node
        # edge order as materializing a subgraph, without building one).
        ids = self._csr.ids
        index_of = self._csr.index_of
        adjacency = {
            node: [(ids[v], w) for v, w in self._interior[index_of[node]]]
            for node in self.partitioning.nodes_in_region(region)
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
        # A border of the block has an edge to or from a region it does not
        # cover (a node's own region is always covered).
        outside = ~sum(1 << region for region in covered)
        index_of = self._csr.index_of
        merged.border_nodes = [
            node
            for node in left.border_nodes + right.border_nodes
            if self._foreign[index_of[node]] & outside
        ]
        overlay = self._overlay_adjacency(left, right)
        merged.super_edges = self._all_pairs_border_distances(
            adjacency=overlay, border_nodes=merged.border_nodes
        )
        return merged

    # ------------------------------------------------------------------
    # Build/serve split: separable state
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """The hierarchy as plain values (see :mod:`repro.serialize`).

        Each sub-graph's super-edges are three parallel lists -- sources,
        targets, distances -- in the dict's insertion order: the query
        overlay is assembled by iterating them, so order is part of the
        bit-identity contract, and flat int and float lists take the
        codec's bulk paths.
        """
        return {
            "levels": [
                {
                    first: {
                        "level": subgraph.level,
                        "regions": list(subgraph.regions),
                        "border_nodes": list(subgraph.border_nodes),
                        "sources": [u for u, _ in subgraph.super_edges],
                        "targets": [v for _, v in subgraph.super_edges],
                        "distances": list(subgraph.super_edges.values()),
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
                    super_edges=dict(
                        zip(zip(entry["sources"], entry["targets"]), entry["distances"])
                    ),
                )
                for first, entry in level.items()
            }
            for level in state["levels"]
        ]
        self.precomputation_seconds = state["seconds"]
        self._compile_rows()
        self._compose_overlay()
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

        Every changed edge leaves a node of a dirty region, so only those
        nodes' rows are recompiled and recomposed (the region and foreign
        maps depend on structure alone).  The row lists are copied first: a
        shadow (:meth:`~repro.air.hiti_air.HiTiBroadcastScheme.shadow_rebuild`)
        shares them with the instance still serving.
        """
        recomputed = 0
        dirty = sorted(dirty_regions)
        self._interior = list(self._interior)
        self._crossing = list(self._crossing)
        self._detail = list(self._detail)
        self._coarse = list(self._coarse)
        self._split_rows(node for region in dirty for node in self._region_nodes[region])
        for region in dirty:
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
        self._compose_overlay(dirty)
        return recomputed

    def _overlay_adjacency(
        self, left: HiTiSubgraph, right: HiTiSubgraph
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
        ids = self._csr.ids
        index_of = self._csr.index_of
        region = self._region
        for child, other in ((left, set(right.regions)), (right, set(left.regions))):
            for border in child.border_nodes:
                for neighbor, weight in self._crossing[index_of[border]]:
                    if region[neighbor] in other:
                        add(border, ids[neighbor], weight)
        return adjacency

    @staticmethod
    def _all_pairs_border_distances(
        adjacency: Dict[int, List[Tuple[int, float]]], border_nodes: List[int]
    ) -> Dict[Tuple[int, int], float]:
        """Shortest distances between all ordered border pairs on ``adjacency``.

        The sub-graph becomes local rows once (:func:`adjacency_rows`, border
        nodes included), then one kernel row search per border source runs
        until every border node has settled.  Settled labels do not depend
        on tie-breaking, so the super-edges equal a dict Dijkstra's.
        """
        if not border_nodes:
            return {}
        ids, index_of, rows = adjacency_rows(adjacency, border_nodes)
        positions = [index_of[node] for node in border_nodes]
        super_edges: Dict[Tuple[int, int], float] = {}
        for source, source_index in zip(border_nodes, positions):
            dist = row_search(rows, ids, source_index, remaining=set(border_nodes))[0]
            for target, target_index in zip(border_nodes, positions):
                if target == source:
                    continue
                distance = dist[target_index]
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
        region_of = self.partitioning.region_of
        rows = list(self._coarse)
        detail = self._detail
        for region in {region_of(source), region_of(target)}:
            for node in self._region_nodes[region]:
                rows[node] = detail[node]
        result = arena_for(self._csr).point_to_point(source, target, adjacency=rows)
        return result.path_result(target)

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
