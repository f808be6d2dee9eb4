"""kd-tree partitioning (paper Section 4.1, Figure 2).

The network is recursively split by the median coordinate of its contained
nodes, alternating between the y axis (first split, a line parallel to the
x axis) and the x axis, until the requested number of leaf regions is
reached.  The splitting values, transmitted in breadth-first order, are the
*first component* of both the EB and the NR air indexes: ``n - 1`` values
implicitly define ``n`` regions, and the client can rebuild the tree from
them alone.

Region numbering follows the paper's convention: leaves are numbered left to
right (the leftmost region of the leftmost leaf is region 0 in this
implementation; the paper calls it R1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning

__all__ = ["KDTreeNode", "KDTreePartitioner", "build_kdtree_partitioning"]

#: Axis used at the root split.  The paper's Figure 2 splits on y first
#: (a horizontal line), then alternates.
ROOT_AXIS = "y"


@dataclass
class KDTreeNode:
    """Internal kd-tree node: a split ``axis``/``value`` with two children.

    Leaves are represented by ``axis=None`` and carry a ``region`` index.
    """

    axis: Optional[str] = None
    value: float = 0.0
    left: Optional["KDTreeNode"] = None
    right: Optional["KDTreeNode"] = None
    region: int = -1

    @property
    def is_leaf(self) -> bool:
        return self.axis is None


class KDTreePartitioner:
    """Median kd-tree over a set of points, exposing point-to-region lookup."""

    def __init__(self, root: KDTreeNode, num_regions: int) -> None:
        self.root = root
        self._num_regions = num_regions

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, points: Sequence[Tuple[float, float]], num_regions: int
    ) -> "KDTreePartitioner":
        """Build a kd-tree with ``num_regions`` leaves over ``points``.

        ``num_regions`` must be a power of two (the paper always uses 16,
        32, 64, or 128 regions).
        """
        if num_regions < 1 or num_regions & (num_regions - 1) != 0:
            raise ValueError(f"num_regions must be a power of two, got {num_regions}")
        if not points:
            raise ValueError("cannot partition an empty point set")
        depth = num_regions.bit_length() - 1  # log2(num_regions)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        root = cls._split(list(zip(xs, ys)), depth, ROOT_AXIS)
        partitioner = cls(root, num_regions)
        partitioner._assign_region_numbers()
        return partitioner

    @classmethod
    def _split(
        cls, points: List[Tuple[float, float]], levels_left: int, axis: str
    ) -> KDTreeNode:
        if levels_left == 0:
            return KDTreeNode()
        coordinate_index = 0 if axis == "x" else 1
        values = sorted(point[coordinate_index] for point in points) if points else [0.0]
        median = values[(len(values) - 1) // 2] if values else 0.0
        left_points = [p for p in points if p[coordinate_index] <= median]
        right_points = [p for p in points if p[coordinate_index] > median]
        next_axis = "x" if axis == "y" else "y"
        return KDTreeNode(
            axis=axis,
            value=median,
            left=cls._split(left_points, levels_left - 1, next_axis),
            right=cls._split(right_points, levels_left - 1, next_axis),
        )

    def _assign_region_numbers(self) -> None:
        """Number leaves left-to-right (paper's R1, R2, ... convention)."""
        counter = 0

        def visit(node: KDTreeNode) -> None:
            nonlocal counter
            if node.is_leaf:
                node.region = counter
                counter += 1
                return
            visit(node.left)
            visit(node.right)

        visit(self.root)
        if counter != self._num_regions:
            raise AssertionError(
                f"expected {self._num_regions} leaves, assigned {counter}"
            )

    # ------------------------------------------------------------------
    # RegionLocator protocol
    # ------------------------------------------------------------------
    @property
    def num_regions(self) -> int:
        """Number of leaf regions."""
        return self._num_regions

    def locate(self, x: float, y: float) -> int:
        """Return the leaf region containing point ``(x, y)``."""
        node = self.root
        while not node.is_leaf:
            coordinate = x if node.axis == "x" else y
            node = node.left if coordinate <= node.value else node.right
        return node.region

    def locate_many(self, xs, ys) -> np.ndarray:
        """Regions of the points ``(xs[i], ys[i])``, as :meth:`locate` finds
        them, in one array pass per tree level.

        The tree is complete, so each point walks the breadth-first
        splitting values by heap index (children ``2i + 1`` and ``2i +
        2``; ``<=`` goes left), and a leaf's region is its heap index less
        the ``num_regions - 1`` internal nodes before it.
        """
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        splits = np.asarray(self.splitting_values(), dtype=np.float64)
        heap = np.zeros(len(xs), dtype=np.int64)
        axis = ROOT_AXIS
        for _ in range(self._num_regions.bit_length() - 1):
            coordinate = xs if axis == "x" else ys
            heap = 2 * heap + np.where(coordinate <= splits[heap], 1, 2)
            axis = "x" if axis == "y" else "y"
        return heap - (self._num_regions - 1)

    # ------------------------------------------------------------------
    # Air-index serialization (first index component)
    # ------------------------------------------------------------------
    def splitting_values(self) -> List[float]:
        """Splitting values in breadth-first order (``n - 1`` floats).

        This is exactly the sequence the paper's example encodes as
        ``<10, 9, 11, 16, 15, ...>``: it suffices for a client to rebuild
        the tree, because the tree is complete and the axis alternates
        deterministically per level starting from :data:`ROOT_AXIS`.
        """
        values: List[float] = []
        frontier = [self.root]
        while frontier:
            next_frontier: List[KDTreeNode] = []
            for node in frontier:
                if node.is_leaf:
                    continue
                values.append(node.value)
                next_frontier.append(node.left)
                next_frontier.append(node.right)
            frontier = next_frontier
        return values

    @classmethod
    def from_splitting_values(
        cls, values: Sequence[float], num_regions: int
    ) -> "KDTreePartitioner":
        """Rebuild the kd-tree a client decodes from the air index.

        ``values`` must contain exactly ``num_regions - 1`` splitting values
        in breadth-first order.
        """
        if num_regions < 1 or num_regions & (num_regions - 1) != 0:
            raise ValueError(f"num_regions must be a power of two, got {num_regions}")
        if len(values) != num_regions - 1:
            raise ValueError(
                f"expected {num_regions - 1} splitting values, got {len(values)}"
            )
        depth = num_regions.bit_length() - 1
        iterator = iter(values)

        # Build level by level so consumption order matches breadth-first.
        root = KDTreeNode()
        frontier = [root]
        axis = ROOT_AXIS
        for _ in range(depth):
            next_frontier: List[KDTreeNode] = []
            for node in frontier:
                node.axis = axis
                node.value = next(iterator)
                node.left = KDTreeNode()
                node.right = KDTreeNode()
                next_frontier.extend([node.left, node.right])
            frontier = next_frontier
            axis = "x" if axis == "y" else "y"
        partitioner = cls(root, num_regions)
        partitioner._assign_region_numbers()
        return partitioner


def build_kdtree_partitioning(network: RoadNetwork, num_regions: int) -> Partitioning:
    """Partition ``network`` into ``num_regions`` kd-tree regions."""
    points = [(node.x, node.y) for node in network.nodes()]
    partitioner = KDTreePartitioner.build(points, num_regions)
    return Partitioning(network, partitioner)
