"""A* search (paper Section 2.1).

A* needs an admissible lower bound ``LB(v, target)`` on the remaining graph
distance.  The paper assumes general networks where no a-priori bound exists,
so plain A* is only usable together with the Landmark index, which derives
bounds from pre-computed landmark distance vectors
(:mod:`repro.index.landmark`).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Optional, Set

from repro.network.graph import RoadNetwork
from repro.network.algorithms.paths import INFINITY, PathResult, reconstruct_path

__all__ = ["astar_search"]

LowerBound = Callable[[int, int], float]


def astar_search(
    network: RoadNetwork,
    source: int,
    target: int,
    lower_bound: Optional[LowerBound] = None,
    edge_filter: Optional[Callable[[int, int], bool]] = None,
) -> PathResult:
    """A* from ``source`` to ``target``.

    Parameters
    ----------
    lower_bound:
        ``lower_bound(v, target)`` must never exceed the true graph distance
        from ``v`` to ``target``; passing ``None`` degenerates to Dijkstra.
    edge_filter:
        Optional predicate ``f(u, v)``; edges for which it returns ``False``
        are ignored.  ArcFlag's pruned search reuses A* through this hook.
    """
    if source not in network:
        raise KeyError(f"unknown source node {source}")
    if target not in network:
        raise KeyError(f"unknown target node {target}")
    heuristic = lower_bound if lower_bound is not None else (lambda _v, _t: 0.0)
    # Walk the snapshot by node index: index order is id order, so the
    # ``(f, index)`` heap breaks ties exactly as an ``(f, node_id)`` heap.
    csr = network.ensure_csr()
    ids = csr.ids
    adjacency = csr.fwd_adj
    start = csr.index_of[source]
    goal = csr.index_of[target]

    distances: Dict[int, float] = {start: 0.0}
    predecessors: Dict[int, Optional[int]] = {start: None}
    settled: Set[int] = set()
    heap = [(heuristic(source, target), start)]
    settled_count = 0

    while heap:
        _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        settled_count += 1
        if node == goal:
            break
        node_distance = distances[node]
        node_id = ids[node]
        for neighbor, weight in adjacency[node]:
            if edge_filter is not None and not edge_filter(node_id, ids[neighbor]):
                continue
            candidate = node_distance + weight
            if candidate < distances.get(neighbor, INFINITY):
                distances[neighbor] = candidate
                predecessors[neighbor] = node
                heapq.heappush(
                    heap, (candidate + heuristic(ids[neighbor], target), neighbor)
                )

    distance = distances.get(goal, INFINITY)
    path = (
        [ids[i] for i in reconstruct_path(predecessors, start, goal)]
        if distance != INFINITY
        else []
    )
    return PathResult(
        source=source,
        target=target,
        distance=distance,
        path=path,
        settled=settled_count,
    )
