"""Dict-loop references for the small-graph searches on the kernel's rows.

* :func:`compress_region` and :func:`shortest_path_on_overlay` are the
  Section 6.1 memory-bound client's region compression and final overlay
  search as dict Dijkstras: the region's adjacency is rebuilt from
  ``network.neighbors()`` and searched once per terminal by
  :func:`dijkstra_local`.  :mod:`repro.air.memory_bound` runs the same
  searches with :func:`repro.network.algorithms.kernel.row_search` over
  region-local rows.
* :func:`all_pairs_border_distances` is HiTi's super-edge computation
  (:meth:`repro.index.hiti.HiTiIndex._border_distances`) as one
  dict Dijkstra per border source.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.air.memory_bound import SuperEdgeGraph
from repro.air.records import RecordLayout
from repro.network.algorithms.paths import INFINITY, reconstruct_path
from repro.network.graph import RoadNetwork


def compress_region(
    overlay: SuperEdgeGraph,
    network: RoadNetwork,
    region_nodes: Iterable[int],
    border_nodes: Iterable[int],
    extra_terminals: Iterable[int],
    layout: RecordLayout,
    keep_expansions: bool = True,
    expansion_terminals: Optional[Iterable[int]] = None,
) -> int:
    """:func:`repro.air.memory_bound.compress_region` over a dict adjacency."""
    received = set(region_nodes)
    terminals = sorted((set(border_nodes) | set(extra_terminals)) & received)

    # Adjacency restricted to the region's received nodes.
    local_adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for node in received:
        local_adjacency[node] = [
            (neighbor, weight)
            for neighbor, weight in network.neighbors(node)
            if neighbor in received
        ]

    added = 0
    terminal_set = set(terminals)
    expansion_set = (
        terminal_set if expansion_terminals is None else set(expansion_terminals)
    )
    for source in terminals:
        distances, predecessors = dijkstra_local(local_adjacency, source, terminal_set)
        for target in terminals:
            if target == source:
                continue
            distance = distances.get(target, INFINITY)
            if distance == INFINITY:
                continue
            expand = keep_expansions and (
                source in expansion_set or target in expansion_set
            )
            if expand:
                path = reconstruct_path(predecessors, source, target)
                overlay.add_super_edge(source, target, distance, path, layout)
            else:
                overlay.add_edge(source, target, distance, layout)
            added += 1

    # Border edges: original edges leaving the region from its border nodes.
    for node in terminals:
        for neighbor, weight in network.neighbors(node):
            if neighbor not in received:
                overlay.add_edge(node, neighbor, weight, layout)
    return added


def shortest_path_on_overlay(
    overlay: SuperEdgeGraph, source: int, target: int
) -> Tuple[float, List[int], int]:
    """Dijkstra on the overlay; returns (distance, expanded path, settled)."""
    if source not in overlay.adjacency:
        return (INFINITY, [], 0)
    distances: Dict[int, float] = {source: 0.0}
    predecessors: Dict[int, Optional[int]] = {source: None}
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
        for neighbor, weight in overlay.adjacency.get(node, ()):
            candidate = dist + weight
            if candidate < distances.get(neighbor, INFINITY):
                distances[neighbor] = candidate
                predecessors[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    distance = distances.get(target, INFINITY)
    if distance == INFINITY:
        return (INFINITY, [], settled_count)
    overlay_path = reconstruct_path(predecessors, source, target)
    return (distance, overlay.expand_path(overlay_path), settled_count)


def dijkstra_local(
    adjacency: Dict[int, List[Tuple[int, float]]], source: int, targets: Set[int]
) -> Tuple[Dict[int, float], Dict[int, Optional[int]]]:
    """Dijkstra over a plain adjacency dict, stopping when targets settle."""
    distances: Dict[int, float] = {source: 0.0}
    predecessors: Dict[int, Optional[int]] = {source: None}
    remaining = set(targets)
    remaining.discard(source)
    settled: Set[int] = set()
    heap = [(0.0, source)]
    while heap and remaining:
        dist, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        remaining.discard(node)
        for neighbor, weight in adjacency.get(node, ()):
            candidate = dist + weight
            if candidate < distances.get(neighbor, INFINITY):
                distances[neighbor] = candidate
                predecessors[neighbor] = node
                heapq.heappush(heap, (candidate, neighbor))
    return distances, predecessors


def all_pairs_border_distances(
    adjacency: Dict[int, List[Tuple[int, float]]], border_nodes: List[int]
) -> Dict[Tuple[int, int], float]:
    """Shortest distances between all ordered border pairs on ``adjacency``,
    one :func:`dijkstra_local` per border source, in border-node order."""
    super_edges: Dict[Tuple[int, int], float] = {}
    for source in border_nodes:
        distances, _ = dijkstra_local(adjacency, source, set(border_nodes))
        for target in border_nodes:
            if target == source:
                continue
            distance = distances.get(target, INFINITY)
            if distance != INFINITY:
                super_edges[(source, target)] = distance
    return super_edges
