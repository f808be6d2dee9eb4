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

The overlay is compiled once per build, refresh and restore as one graph
derived from the snapshot (:meth:`~repro.network.csr.CSRGraph.derived`):
every snapshot edge, with the weights the index was built over, and every
level-0 super-edge, each tagged with its kind and its tail's region.  A
query keeps the crossing edges, the interior edges of the source and target
regions and the super-edges of every other region -- one vectorized pass
weighs the rest ``inf`` -- and searches it in one compiled sweep
(``KernelArena.point_to_point(weights=...)``).  The super-edge builds run
batched compiled sweeps over derived graphs too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

import numpy as np

from repro.network.algorithms.kernel import KernelArena, arena_for
from repro.network.algorithms.paths import INFINITY, PathResult
from repro.network.csr import CSRGraph
from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning

__all__ = ["HiTiIndex", "HiTiSubgraph"]

#: Bytes per stored super-edge: two 4-byte node ids plus a 4-byte distance.
BYTES_PER_SUPER_EDGE = 12

#: Border sources per batched sweep of a super-edge build: a ``sources x
#: nodes`` float64 block, 14 MB at full Germany.
_BATCH = 64


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
    arrays:
        The super-edges as snapshot-index ``(tails, heads, weights)``
        arrays, filled on first use.
    """

    level: int
    regions: Tuple[int, ...]
    border_nodes: List[int] = field(default_factory=list)
    super_edges: Dict[Tuple[int, int], float] = field(default_factory=dict)
    arrays: Any = field(default=None, repr=False, compare=False)


class HiTiIndex:
    """Hierarchical super-edge index over a kd partitioning."""

    def __init__(self, network: RoadNetwork, partitioning: Partitioning) -> None:
        self.network = network
        self.partitioning = partitioning
        self.num_regions = partitioning.num_regions
        # Every sub-graph, as a refresh with every leaf region dirty: one
        # level per doubling of the block, up to one block covering all.
        started = time.perf_counter()
        self._bind()
        #: ``levels[k]`` maps the first leaf region of a block to its sub-graph.
        self.levels: List[Dict[int, HiTiSubgraph]] = [
            {} for _ in range((self.num_regions - 1).bit_length() + 1)
        ]
        self.refresh(set(range(self.num_regions)))
        self.precomputation_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _bind(self) -> None:
        """Bind the snapshot and every node index's region."""
        csr = self.network.ensure_csr()
        self._csr = csr
        self._region = region = self.partitioning.node_region
        tails, heads = csr.edge_endpoints()
        self._num_crossing = int(np.count_nonzero(region[tails] != region[heads]))

    def _compile_overlay(self) -> None:
        """Compile the flat level-0 overlay, new on every call (a refreshed
        replacement never touches the one its predecessor serves): each
        node's snapshot edges at their current weights, then its
        super-edges.  ``_code`` tags an interior edge with its region ``r``,
        a super-edge with ``R + r`` and a crossing edge with ``2 R``."""
        csr = self._csr
        count = self.num_regions
        region = self._region
        tails, heads = self._csr.edge_endpoints()
        weights = np.frombuffer(csr.fwd_weights, dtype=np.float64)
        codes = np.where(region[tails] == region[heads], region[tails], 2 * count)
        super_tails, super_heads, super_weights = self._super_edge_arrays(
            *(self.levels[0][leaf] for leaf in range(count))
        )
        order = np.argsort(np.concatenate((tails, super_tails)), kind="stable")
        self._code = np.concatenate((codes, count + region[super_tails]))[order]
        self.overlay = CSRGraph.derived(
            csr,
            np.concatenate((tails, super_tails))[order],
            np.concatenate((heads, super_heads))[order],
            np.concatenate((weights, super_weights))[order],
            name=f"{csr.name}-hiti-overlay",
        )
        self._overlay_weights = np.frombuffer(self.overlay.fwd_weights, dtype=np.float64)

    def num_crossing_edges(self) -> int:
        """Edges whose endpoints lie in different regions."""
        return self._num_crossing

    def _build_leaf(self, region: int) -> HiTiSubgraph:
        """(Re)compute the level-0 sub-graph of one leaf region: border
        distances over the snapshot's edges inside it."""
        subgraph = HiTiSubgraph(level=0, regions=(region,))
        subgraph.border_nodes = self.partitioning.border_nodes(region)
        tails, heads = self._csr.edge_endpoints()
        inside = (self._region[tails] == region) & (self._region[heads] == region)
        weights = np.frombuffer(self._csr.fwd_weights, dtype=np.float64)
        subgraph.super_edges = self._border_distances(
            self._csr, tails[inside], heads[inside], weights[inside], subgraph.border_nodes
        )
        return subgraph

    def _build_block(self, level_index: int, first: int, block: int) -> HiTiSubgraph:
        """(Re)compute the level-``level_index`` block starting at leaf
        ``first``: border distances over the two children's super-edges and
        the snapshot's edges crossing between them."""
        previous = self.levels[level_index - 1]
        left = previous[first]
        right = previous[first + block // 2]
        merged = HiTiSubgraph(
            level=level_index, regions=tuple(sorted(left.regions + right.regions))
        )
        side = np.zeros(self.num_regions, dtype=np.int64)
        side[list(left.regions)] = 1
        side[list(right.regions)] = 2
        tails, heads = self._csr.edge_endpoints()
        tail_side, head_side = side[self._region[tails]], side[self._region[heads]]
        # A border of the block has an edge to or from a region it does not cover.
        touching = np.zeros(self._csr.num_nodes, dtype=bool)
        touching[tails[(head_side == 0) & (tail_side > 0)]] = True
        touching[heads[(tail_side == 0) & (head_side > 0)]] = True
        index_of = self._csr.index_of
        merged.border_nodes = [
            node
            for node in left.border_nodes + right.border_nodes
            if touching[index_of[node]]
        ]
        between = tail_side * head_side == 2
        weights = np.frombuffer(self._csr.fwd_weights, dtype=np.float64)
        supers = self._super_edge_arrays(left, right)
        merged.super_edges = self._border_distances(
            self._csr,
            np.concatenate((supers[0], tails[between])),
            np.concatenate((supers[1], heads[between])),
            np.concatenate((supers[2], weights[between])),
            merged.border_nodes,
        )
        return merged

    def _super_edge_arrays(self, *subgraphs: HiTiSubgraph):
        """Tail and head index and weight of the super-edges of
        ``subgraphs``, in their dicts' order."""
        for subgraph in subgraphs:
            if subgraph.arrays is None:
                ids = np.asarray(self._csr.ids, dtype=np.int64)
                edges = subgraph.super_edges
                subgraph.arrays = (
                    ids.searchsorted(np.array([u for u, _ in edges], dtype=np.int64)),
                    ids.searchsorted(np.array([v for _, v in edges], dtype=np.int64)),
                    np.array(list(edges.values()), dtype=np.float64),
                )
        return [np.concatenate(part) for part in zip(*(sub.arrays for sub in subgraphs))]

    @staticmethod
    def _border_distances(
        csr: CSRGraph, tails, heads, weights, border_nodes: List[int]
    ) -> Dict[Tuple[int, int], float]:
        """Shortest distances between all ordered border pairs over the
        edges ``tails -> heads`` among ``csr``'s nodes: batched compiled
        sweeps over a graph derived from ``csr``, whose converged labels
        equal a dict Dijkstra's, keyed in border order."""
        super_edges: Dict[Tuple[int, int], float] = {}
        if not border_nodes:
            return super_edges
        graph = CSRGraph.derived(csr, tails, heads, weights, name="hiti-subgraph")
        arena = KernelArena(graph)
        positions = [csr.index_of[node] for node in border_nodes]
        for start in range(0, len(border_nodes), _BATCH):
            sources = border_nodes[start : start + _BATCH]
            dist = np.empty((len(sources), graph.num_nodes))
            arena.many_to_many(sources, dist, None)
            for source, row in zip(sources, dist[:, positions].tolist()):
                for target, distance in zip(border_nodes, row):
                    if target != source and distance != INFINITY:
                        super_edges[(source, target)] = distance
        return super_edges

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
        self._bind()
        self._compile_overlay()
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

        The builds read the snapshot's current edges, and the overlay is
        compiled afresh, so a shadow (:meth:`~repro.air.hiti_air.
        HiTiBroadcastScheme.shadow_rebuild`) leaves the serving one alone.
        """
        recomputed = 0
        dirty = sorted(dirty_regions)
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
        self._compile_overlay()
        return recomputed

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
        detailed = np.zeros(self.num_regions, dtype=bool)
        detailed[[region_of(source), region_of(target)]] = True
        keep = np.concatenate((detailed, ~detailed, [True])).take(self._code)
        weights = np.where(keep, self._overlay_weights, np.inf)
        result = arena_for(self.overlay).point_to_point(source, target, weights=weights)
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
