"""Dict-based reference Dijkstra for the array kernel.

The production searches (:mod:`repro.network.algorithms.kernel`, and
:func:`repro.network.algorithms.dijkstra.shortest_path` over it) run on
the network's CSR snapshot.  This is the textbook loop they must reproduce
bit for bit: a binary heap over ``(distance, node id)``, a settled set, and
relaxation over the network's own adjacency lists.  It reads only
``network.adjacency()`` / ``network.reverse_adjacency()``, never a
snapshot, so it stays independent of the code under test.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro.network.algorithms.paths import INFINITY, PathResult, reconstruct_path


@dataclass
class DijkstraResult:
    """Distances and predecessors produced by a single-source search."""

    source: int
    distances: Dict[int, float] = field(default_factory=dict)
    predecessors: Dict[int, Optional[int]] = field(default_factory=dict)
    settled: int = 0
    settled_nodes: Set[int] = field(default_factory=set)

    def distance_to(self, target: int) -> float:
        """Distance to ``target`` or ``inf`` when unreached."""
        return self.distances.get(target, INFINITY)

    def path_to(self, target: int) -> list:
        """Shortest path node sequence to ``target`` (empty if unreached)."""
        return reconstruct_path(self.predecessors, self.source, target)


def dijkstra_search(
    network,
    source: int,
    target: Optional[int] = None,
    targets: Optional[Set[int]] = None,
    reverse: bool = False,
    allowed: Optional[Set[int]] = None,
) -> DijkstraResult:
    """Dijkstra from ``source``; stops at ``target`` or once ``targets`` settle.

    ``allowed`` restricts the search to a node subset: relaxation skips any
    neighbour outside it.
    """
    if source not in network:
        raise KeyError(f"unknown source node {source}")
    adjacency = network.reverse_adjacency() if reverse else network.adjacency()

    distances: Dict[int, float] = {source: 0.0}
    predecessors: Dict[int, Optional[int]] = {source: None}
    settled: Set[int] = set()
    remaining = set(targets) if targets is not None else None
    heap = [(0.0, source)]
    settled_count = 0

    while heap:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        settled_count += 1
        if target is not None and node == target:
            break
        if remaining is not None:
            remaining.discard(node)
            if not remaining:
                break
        for neighbor, weight in adjacency[node]:
            if allowed is not None and neighbor not in allowed:
                continue
            candidate = dist + weight
            if candidate < distances.get(neighbor, INFINITY):
                distances[neighbor] = candidate
                predecessors[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))

    return DijkstraResult(
        source=source,
        distances=distances,
        predecessors=predecessors,
        settled=settled_count,
        settled_nodes=settled,
    )


def dijkstra_distances(network, source: int, reverse: bool = False) -> DijkstraResult:
    """Full single-source sweep."""
    return dijkstra_search(network, source, reverse=reverse)


def dijkstra_multi_target(
    network, source: int, targets: Iterable[int], reverse: bool = False
) -> DijkstraResult:
    """Sweep that stops once every target is settled."""
    return dijkstra_search(network, source, targets=set(targets), reverse=reverse)


def shortest_path(network, source: int, target: int) -> PathResult:
    """Point-to-point search with early termination."""
    if target not in network:
        raise KeyError(f"unknown target node {target}")
    result = dijkstra_search(network, source, target=target)
    distance = result.distance_to(target)
    path = result.path_to(target) if distance != INFINITY else []
    return PathResult(
        source=source,
        target=target,
        distance=distance,
        path=path,
        settled=result.settled,
    )
