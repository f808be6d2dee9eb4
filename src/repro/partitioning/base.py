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

from typing import Dict, List, Protocol, Sequence, Set

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

    def locate_many(self, xs: Sequence[float], ys: Sequence[float]) -> np.ndarray:
        """Regions of the points ``(xs[i], ys[i])`` as an int array, each
        equal to :meth:`locate`'s."""
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
        # One bulk locate over the snapshot's coordinate arrays; regions,
        # members and border lists then follow node insertion order.
        csr = network.ensure_csr()
        xs, ys, order = network.node_arrays()
        region = np.asarray(
            locator.locate_many(
                np.frombuffer(xs, dtype=np.float64), np.frombuffer(ys, dtype=np.float64)
            ),
            dtype=np.int64,
        )
        outside = (region < 0) | (region >= self.num_regions)
        if outside.any():
            raise ValueError(
                f"locator produced region {int(region[outside][0])} "
                f"outside [0, {self.num_regions})"
            )
        rows = (
            np.arange(csr.num_nodes)
            if order is None
            else np.searchsorted(
                np.asarray(csr.ids, dtype=np.int64), np.asarray(order, dtype=np.int64)
            )
        )
        # An object array over the snapshot's own id ints: every list below
        # references them rather than holding fresh copies.
        ids = np.array(csr.ids, dtype=object)
        node_ids, node_regions = ids[rows], region[rows]
        region.setflags(write=False)
        #: Every node's region in snapshot index order (read-only int64):
        #: what index builds vectorize over instead of calling
        #: :meth:`region_of` per node.
        self.node_region: np.ndarray = region
        self._region_of: Dict[int, int] = dict(
            zip(node_ids.tolist(), node_regions.tolist())
        )
        self._regions: List[List[int]] = self._group(node_ids, node_regions)
        crosses = self._crossing_nodes(csr, region)[rows]
        self._border_nodes: List[List[int]] = self._group(
            node_ids[crosses], node_regions[crosses]
        )

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
    def _group(self, ids: np.ndarray, region: np.ndarray) -> List[List[int]]:
        """``ids`` split into one list per region, each in ``ids`` order."""
        order = np.argsort(region, kind="stable")
        bounds = np.searchsorted(region[order], np.arange(self.num_regions + 1))
        grouped = ids[order].tolist()
        return [grouped[bounds[r] : bounds[r + 1]] for r in range(self.num_regions)]

    @staticmethod
    def _crossing_nodes(csr, region: np.ndarray) -> np.ndarray:
        """Per snapshot index, whether the node has an edge (either way)
        into another region: one pass over each direction's edge arrays."""
        crosses = np.zeros(csr.num_nodes, dtype=bool)
        for reverse in (False, True):
            owner, targets = csr.edge_endpoints(reverse)
            crosses[owner[region[owner] != region[targets]]] = True
        return crosses

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Partitioning(regions={self.num_regions}, "
            f"nodes={self.network.num_nodes}, "
            f"border={sum(self.border_counts())})"
        )
