"""Region partitioning abstractions.

A *partitioning* assigns every network node to exactly one region.  Regions
drive all air-index methods of the paper: EB and NR prune whole regions,
ArcFlag keeps one flag bit per region, and HiTi builds its hierarchy on top
of them.

A node is a *border node* of its region if at least one adjacent node (along
an incoming or outgoing edge) lies in a different region (paper Section 2.1,
HiTi description, reused by EB/NR in Section 4.1).
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Set

import numpy as np

from repro.network.graph import RoadNetwork

__all__ = ["RegionLocator", "Partitioning"]


class RegionLocator(Protocol):
    """Maps a Euclidean point to a region identifier in ``[0, num_regions)``."""

    @property
    def num_regions(self) -> int:
        """Total number of regions."""
        ...

    def locate(self, x: float, y: float) -> int:
        """Return the region containing point ``(x, y)``."""
        ...


class Partitioning:
    """A concrete assignment of network nodes to regions.

    Parameters
    ----------
    network:
        The road network being partitioned.
    locator:
        Point-to-region mapping (kd-tree or grid).  The same locator is what
        the client reconstructs from the air index's first component in order
        to find the source and destination regions.
    """

    def __init__(self, network: RoadNetwork, locator: RegionLocator) -> None:
        self.network = network
        self.locator = locator
        self.num_regions = locator.num_regions
        self._region_of: Dict[int, int] = {}
        self._regions: List[List[int]] = [[] for _ in range(self.num_regions)]
        for node_id in network.node_ids():
            region = locator.locate(*network.coordinates(node_id))
            if not 0 <= region < self.num_regions:
                raise ValueError(
                    f"locator produced region {region} outside [0, {self.num_regions})"
                )
            self._region_of[node_id] = region
            self._regions[region].append(node_id)
        self._border_nodes: List[List[int]] = self._compute_border_nodes()

    # ------------------------------------------------------------------
    # Region membership
    # ------------------------------------------------------------------
    def region_of(self, node_id: int) -> int:
        """Region index of ``node_id``."""
        return self._region_of[node_id]

    def region_of_point(self, x: float, y: float) -> int:
        """Region index of an arbitrary Euclidean location."""
        return self.locator.locate(x, y)

    def nodes_in_region(self, region: int) -> List[int]:
        """All node ids assigned to ``region``."""
        return list(self._regions[region])

    def region_sizes(self) -> List[int]:
        """Number of nodes per region."""
        return [len(nodes) for nodes in self._regions]

    def non_empty_regions(self) -> List[int]:
        """Indices of regions containing at least one node."""
        return [r for r, nodes in enumerate(self._regions) if nodes]

    # ------------------------------------------------------------------
    # Border structure
    # ------------------------------------------------------------------
    def border_nodes(self, region: int) -> List[int]:
        """Border nodes of ``region`` (adjacent to some other region)."""
        return list(self._border_nodes[region])

    def all_border_nodes(self) -> List[int]:
        """All border nodes of the network, grouped by region order."""
        return [node for nodes in self._border_nodes for node in nodes]

    def is_border_node(self, node_id: int) -> bool:
        """``True`` when ``node_id`` has a neighbor in another region."""
        region = self._region_of[node_id]
        return node_id in set(self._border_nodes[region])

    def border_counts(self) -> List[int]:
        """Number of border nodes per region."""
        return [len(nodes) for nodes in self._border_nodes]

    def region_adjacency(self) -> Dict[int, Set[int]]:
        """For each region, the set of regions reachable by a single edge."""
        adjacency: Dict[int, Set[int]] = {r: set() for r in range(self.num_regions)}
        for edge in self.network.edges():
            source_region = self._region_of[edge.source]
            target_region = self._region_of[edge.target]
            if source_region != target_region:
                adjacency[source_region].add(target_region)
        return adjacency

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _compute_border_nodes(self) -> List[List[int]]:
        # One pass over each direction's edge arrays marks every node with
        # an edge (either way) into another region.
        csr = self.network.ensure_csr()
        region = np.array([self._region_of[node_id] for node_id in csr.ids], dtype=np.int64)
        crosses = np.zeros(csr.num_nodes, dtype=bool)
        for offsets, targets in (
            (csr.fwd_offsets, csr.fwd_targets),
            (csr.rev_offsets, csr.rev_targets),
        ):
            degree = np.diff(np.frombuffer(offsets, dtype=np.int64))
            owner = np.repeat(np.arange(csr.num_nodes), degree)
            other = region[np.frombuffer(targets, dtype=np.int64)]
            crosses[owner[region[owner] != other]] = True
        border: List[List[int]] = [[] for _ in range(self.num_regions)]
        for node_id, node_region in self._region_of.items():
            if crosses[csr.index_of[node_id]]:
                border[node_region].append(node_id)
        return border

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Partitioning(regions={self.num_regions}, "
            f"nodes={self.network.num_nodes}, "
            f"border={sum(self.border_counts())})"
        )
