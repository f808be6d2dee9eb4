"""Bidirectional Dijkstra, a reference for the production searches.

Not part of the paper's method set, but a useful ground-truth cross-check for
the property-based tests: two independent implementations must agree.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional

from repro.network.graph import RoadNetwork
from repro.network.algorithms.paths import INFINITY, PathResult, reconstruct_path

def bidirectional_dijkstra(network: RoadNetwork, source: int, target: int) -> PathResult:
    """Shortest path via simultaneous forward and backward Dijkstra."""
    if source not in network:
        raise KeyError(f"unknown source node {source}")
    if target not in network:
        raise KeyError(f"unknown target node {target}")
    if source == target:
        return PathResult(source=source, target=target, distance=0.0, path=[source])

    forward_adj = network.adjacency()
    backward_adj = network.reverse_adjacency()

    dist_f: Dict[int, float] = {source: 0.0}
    dist_b: Dict[int, float] = {target: 0.0}
    pred_f: Dict[int, Optional[int]] = {source: None}
    pred_b: Dict[int, Optional[int]] = {target: None}
    settled_f: set = set()
    settled_b: set = set()
    heap_f = [(0.0, source)]
    heap_b = [(0.0, target)]

    best = INFINITY
    meeting_node: Optional[int] = None
    settled_count = 0

    while heap_f and heap_b:
        # The standard stopping criterion: once the sum of the two frontier
        # minima exceeds the best connection found, the best is optimal.
        if heap_f[0][0] + heap_b[0][0] >= best:
            break

        for heap, dist_this, dist_other, pred, settled, adjacency in (
            (heap_f, dist_f, dist_b, pred_f, settled_f, forward_adj),
            (heap_b, dist_b, dist_f, pred_b, settled_b, backward_adj),
        ):
            if not heap:
                continue
            dist, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled.add(node)
            settled_count += 1
            for neighbor, weight in adjacency[node]:
                candidate = dist + weight
                if candidate < dist_this.get(neighbor, INFINITY):
                    dist_this[neighbor] = candidate
                    pred[neighbor] = node
                    heapq.heappush(heap, (candidate, neighbor))
                if neighbor in dist_other:
                    total = candidate + dist_other[neighbor]
                    if total < best:
                        best = total
                        meeting_node = neighbor
            if node in dist_other and dist + dist_other[node] < best:
                best = dist + dist_other[node]
                meeting_node = node

    if meeting_node is None or best == INFINITY:
        return PathResult(source=source, target=target, distance=INFINITY, settled=settled_count)

    forward_part = reconstruct_path(pred_f, source, meeting_node)
    backward_part = reconstruct_path(pred_b, target, meeting_node)
    path = forward_part + backward_part[::-1][1:]
    return PathResult(
        source=source,
        target=target,
        distance=best,
        path=path,
        settled=settled_count,
    )
