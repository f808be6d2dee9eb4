"""Dict-overlay reference for :meth:`repro.index.hiti.HiTiIndex.query`.

The production query weighs the edges it leaves out of a compiled overlay
graph ``inf`` and searches it in one compiled kernel sweep.  This is the
form it replaced: per query, a dict overlay is
assembled from the network's current edges -- the source and target regions
in full detail, every other region's level-0 super-edges, and every edge
crossing between regions -- and searched by a dict Dijkstra over ``(distance,
node id)``.  It reads ``network.neighbors()``, ``network.edge_tuples()`` and
the index's ``levels`` only, never the compiled overlay under test.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set, Tuple

from repro.network.algorithms.paths import INFINITY, PathResult


def overlay(index, source: int, target: int) -> Dict[int, List[Tuple[int, float]]]:
    """The query overlay of ``source -> target`` as a dict adjacency."""
    network = index.network
    region_of = index.partitioning.region_of
    adjacency: Dict[int, List[Tuple[int, float]]] = {}

    def add(u: int, v: int, w: float) -> None:
        adjacency.setdefault(u, []).append((v, w))
        adjacency.setdefault(v, [])

    detailed = {region_of(source), region_of(target)}
    for region in detailed:
        for node in index.partitioning.nodes_in_region(region):
            adjacency.setdefault(node, [])
            for neighbor, weight in network.neighbors(node):
                if region_of(neighbor) == region:
                    add(node, neighbor, weight)
    for region in range(index.num_regions):
        if region in detailed:
            continue
        for (u, v), w in index.levels[0][region].super_edges.items():
            add(u, v, w)
    for edge_source, edge_target, weight in network.edge_tuples():
        if region_of(edge_source) != region_of(edge_target):
            add(edge_source, edge_target, weight)
    return adjacency


def query(index, source: int, target: int) -> PathResult:
    """Dijkstra over :func:`overlay`, with the query's path and settled count."""
    adjacency = overlay(index, source, target)
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
    distance = distances.get(target, INFINITY)
    path: List[int] = []
    if distance != INFINITY:
        node = target
        while node is not None:
            path.append(node)
            node = predecessors.get(node)
        path.reverse()
    return PathResult(
        source=source, target=target, distance=distance, path=path, settled=settled_count
    )
