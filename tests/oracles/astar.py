"""Reference A* (paper Section 2.1) for the kernel's client searches.

The Landmark client runs A* (the kernel's faithful loop, ``potential=``)
and the ArcFlag client a pruned Dijkstra (one compiled sweep over its
pinned weights with the unflagged edges at ``inf``, ``weights=``), both
through :meth:`~repro.network.algorithms.kernel.KernelArena.point_to_point`.
This is the textbook loop they must reproduce bit for bit: a binary heap
over ``(distance + lower bound, node id)``, a settled set, and relaxation
over the network's own adjacency lists filtered by an optional edge
predicate.  It reads only
``network.adjacency()`` and calls ``lower_bound`` per push, so it stays
independent of the snapshot rows and the vectorized bounds under test.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Optional, Set, Tuple

from oracles.dijkstra import dijkstra_distances
from repro.network.algorithms.paths import INFINITY, PathResult, reconstruct_path

LowerBound = Callable[[int, int], float]
Vectors = Dict[int, Dict[int, float]]


def astar_search(
    network,
    source: int,
    target: int,
    lower_bound: Optional[LowerBound] = None,
    edge_filter: Optional[Callable[[int, int], bool]] = None,
) -> PathResult:
    """A* from ``source`` to ``target``.

    ``lower_bound(v, target)`` must never exceed the true graph distance
    from ``v`` to ``target``; ``None`` degenerates to Dijkstra.  Edges for
    which ``edge_filter(u, v)`` returns ``False`` are ignored.
    """
    if source not in network:
        raise KeyError(f"unknown source node {source}")
    if target not in network:
        raise KeyError(f"unknown target node {target}")
    heuristic = lower_bound if lower_bound is not None else (lambda _v, _t: 0.0)
    adjacency = network.adjacency()

    distances: Dict[int, float] = {source: 0.0}
    predecessors: Dict[int, Optional[int]] = {source: None}
    settled: Set[int] = set()
    heap = [(heuristic(source, target), source)]
    settled_count = 0

    while heap:
        _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        settled_count += 1
        if node == target:
            break
        node_distance = distances[node]
        for neighbor, weight in adjacency[node]:
            if edge_filter is not None and not edge_filter(node, neighbor):
                continue
            candidate = node_distance + weight
            if candidate < distances.get(neighbor, INFINITY):
                distances[neighbor] = candidate
                predecessors[neighbor] = node
                heapq.heappush(heap, (candidate + heuristic(neighbor, target), neighbor))

    distance = distances.get(target, INFINITY)
    path = reconstruct_path(predecessors, source, target) if distance != INFINITY else []
    return PathResult(
        source=source,
        target=target,
        distance=distance,
        path=path,
        settled=settled_count,
    )


def landmark_vectors(network, landmarks) -> Tuple[Vectors, Vectors]:
    """``(forward, backward)``: ``{landmark: {node: distance}}`` from and
    to every landmark, swept by the dict Dijkstra oracle."""
    forward = {l: dijkstra_distances(network, l).distances for l in landmarks}
    backward = {l: dijkstra_distances(network, l, reverse=True).distances for l in landmarks}
    return forward, backward


def landmark_lower_bound(landmarks, forward: Vectors, backward: Vectors) -> LowerBound:
    """The scalar ALT bound, node by node.

    ``LB(v, t) = max over landmarks l of max(d(l, t) - d(l, v), d(v, l) -
    d(t, l))``; a term with an unreached endpoint is left out.
    """

    def lower_bound(node: int, target: int) -> float:
        best = 0.0
        for landmark in landmarks:
            from_landmark = forward[landmark]
            to_landmark = backward[landmark]
            d_l_t = from_landmark.get(target, INFINITY)
            d_l_v = from_landmark.get(node, INFINITY)
            d_v_l = to_landmark.get(node, INFINITY)
            d_t_l = to_landmark.get(target, INFINITY)
            if d_l_t != INFINITY and d_l_v != INFINITY:
                best = max(best, d_l_t - d_l_v)
            if d_v_l != INFINITY and d_t_l != INFINITY:
                best = max(best, d_v_l - d_t_l)
        return max(best, 0.0)

    return lower_bound
