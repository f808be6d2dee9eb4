"""Memory-bound client processing via super-edges (paper Section 6.1).

Instead of holding every received region until the final search, the client
turns each region into *super-edges* -- shortest paths between the region's
border nodes, computed inside the region -- as soon as the region has been
received, and then discards the raw region data.  For the source and target
regions, the query endpoints are added to the border node set so that paths
from/to them survive the compression.  The final Dijkstra runs on the small
graph ``G'`` made of super-edges plus *border edges* (original edges whose
endpoints lie in different regions); super-edges on the result path are then
expanded back into their underlying node sequences.

The peak memory saving the paper reports is around 35%.

Why the two searches here are dict loops and not the CSR kernel: each one
is tiny -- a region's terminals over that region's received nodes, or the
query's super-edge overlay -- while a kernel search allocates label arrays
over the whole snapshot.  A port onto the kernel (every terminal search a
masked multi-target search, the overlay search through ``adjacency=``
rows) gave identical distances, paths, settled counts and peak memory, but
cost the client more CPU, which is the paper's client-computation factor:
median client CPU per memory-bound query rose 1.17x (NR) and 1.33x (EB) on
a 1,010-node network, 1.32x and 1.65x on 1,402 nodes and 1.79x and 1.88x
on 4,907 nodes (16 regions, 100 random pairs, medians of six alternating
in-process rounds on a 2-vCPU VM, Python 3.11).  The dict loops stay
until there is a kernel search whose cost scales with the region rather
than with the snapshot.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.network.algorithms.paths import INFINITY, reconstruct_path
from repro.network.graph import RoadNetwork
from repro.air.records import RecordLayout

__all__ = ["SuperEdgeGraph", "compress_region", "shortest_path_on_overlay"]


@dataclass
class SuperEdgeGraph:
    """The client-side overlay graph ``G'`` accumulated region by region."""

    #: overlay adjacency: node -> list of (neighbor, weight)
    adjacency: Dict[int, List[Tuple[int, float]]] = field(default_factory=dict)
    #: expansion of each super-edge back into its region-internal path
    expansions: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    #: running size estimate in bytes of the overlay held in memory
    size_bytes: int = 0

    def add_edge(self, u: int, v: int, weight: float, layout: RecordLayout) -> None:
        """Add a plain (border) edge to the overlay."""
        self.adjacency.setdefault(u, []).append((v, weight))
        self.adjacency.setdefault(v, [])
        self.size_bytes += 2 * layout.node_id_bytes + layout.weight_bytes

    def add_super_edge(
        self, u: int, v: int, weight: float, path: List[int], layout: RecordLayout
    ) -> None:
        """Add a super-edge together with its expansion path."""
        self.adjacency.setdefault(u, []).append((v, weight))
        self.adjacency.setdefault(v, [])
        self.expansions[(u, v)] = path
        self.size_bytes += (
            2 * layout.node_id_bytes
            + layout.weight_bytes
            + len(path) * layout.node_id_bytes
        )

    def expand_path(self, overlay_path: List[int]) -> List[int]:
        """Replace super-edges in ``overlay_path`` by their stored expansions."""
        if not overlay_path:
            return []
        expanded: List[int] = [overlay_path[0]]
        for u, v in zip(overlay_path, overlay_path[1:]):
            expansion = self.expansions.get((u, v))
            if expansion:
                expanded.extend(expansion[1:])
            else:
                expanded.append(v)
        return expanded


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
    """Compress one received region into super-edges inside ``overlay``.

    Parameters
    ----------
    region_nodes:
        The nodes of the region the client actually received (cross-border
        nodes only for intermediate regions, all nodes for the source and
        target regions).
    border_nodes:
        The region's border nodes (restricted to received ones).
    extra_terminals:
        Query endpoints located in this region (``vs`` / ``vt``), added to
        the border node set as the paper prescribes.
    layout:
        Record sizing used for the overlay's memory accounting.
    keep_expansions:
        Whether to keep node sequences behind super-edges at all.  The EB/NR
        memory-bound clients disable this for intermediate regions: only the
        super-edge costs are retained, which is what makes the working set
        shrink (the returned path is then abridged to super-edge hops inside
        those regions while the distance remains exact).
    expansion_terminals:
        When given (and ``keep_expansions`` is true), expansions are kept only
        for super-edges incident to these nodes -- the query endpoints -- so
        the detailed prefix/suffix of the result survives without storing a
        path for every border pair of the source/target regions.

    Returns the number of super-edges added.
    """
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
        distances, predecessors = _dijkstra_local(local_adjacency, source, terminal_set)
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


def _dijkstra_local(
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

