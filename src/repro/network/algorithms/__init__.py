"""Shortest path algorithms on :class:`~repro.network.graph.RoadNetwork`."""

from repro.network.algorithms.dijkstra import (
    DijkstraResult,
    dijkstra_distances,
    dijkstra_multi_target,
    dijkstra_search,
    shortest_path,
    shortest_path_distance,
)
from repro.network.algorithms.astar import astar_search
from repro.network.algorithms.kernel import (
    KernelArena,
    KernelResult,
    arena_for,
    masked_shortest_path,
)
from repro.network.algorithms.paths import (
    PathResult,
    path_cost,
    reconstruct_path,
    validate_path,
)

__all__ = [
    "DijkstraResult",
    "KernelArena",
    "KernelResult",
    "PathResult",
    "arena_for",
    "astar_search",
    "dijkstra_distances",
    "masked_shortest_path",
    "dijkstra_multi_target",
    "dijkstra_search",
    "path_cost",
    "reconstruct_path",
    "shortest_path",
    "shortest_path_distance",
    "validate_path",
]
