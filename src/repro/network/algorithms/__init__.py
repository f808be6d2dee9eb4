"""Shortest path algorithms on :class:`~repro.network.graph.RoadNetwork`."""

from repro.network.algorithms.dijkstra import shortest_path
from repro.network.algorithms.kernel import (
    KernelArena,
    KernelResult,
    arena_for,
)
from repro.network.algorithms.paths import (
    PathResult,
    path_cost,
    reconstruct_path,
    validate_path,
)

__all__ = [
    "KernelArena",
    "KernelResult",
    "PathResult",
    "arena_for",
    "path_cost",
    "reconstruct_path",
    "shortest_path",
    "validate_path",
]
