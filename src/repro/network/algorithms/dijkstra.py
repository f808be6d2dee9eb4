"""Dijkstra's algorithm (paper Section 2.1, "without pre-computation").

Three entry points cover the needs of the broadcast schemes:

* :func:`shortest_path` -- point-to-point query with early termination,
  used by every air-index client after it has received its regions.
* :func:`dijkstra_distances` -- single-source distances (optionally with
  predecessors), used by Landmark pre-computation and by tests as ground
  truth.
* :func:`dijkstra_multi_target` -- single-source search that stops once a
  given set of targets is settled, used when pre-computing border-to-border
  shortest paths for EB/NR/HiTi.

Every entry point runs on the network's CSR snapshot
(:meth:`~repro.network.graph.RoadNetwork.ensure_csr`, the network's one
stored form) through the array kernel
(:mod:`repro.network.algorithms.kernel`), whose results are bit-identical to
the textbook dict Dijkstra -- distances, predecessors, settled counts, and
even the ``distances`` dict's insertion order.  That dict loop is the test
oracle (``tests/oracles/dijkstra.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set

from repro.network.algorithms import kernel
from repro.network.graph import RoadNetwork
from repro.network.algorithms.paths import INFINITY, PathResult, reconstruct_path

__all__ = [
    "DijkstraResult",
    "dijkstra_distances",
    "dijkstra_multi_target",
    "dijkstra_search",
    "shortest_path",
    "shortest_path_distance",
]


@dataclass
class DijkstraResult:
    """Distances and predecessors produced by a single-source search."""

    source: int
    distances: Dict[int, float] = field(default_factory=dict)
    predecessors: Dict[int, Optional[int]] = field(default_factory=dict)
    settled: int = 0

    def distance_to(self, target: int) -> float:
        """Distance to ``target`` or ``inf`` when unreached."""
        return self.distances.get(target, INFINITY)

    def path_to(self, target: int) -> list:
        """Shortest path node sequence to ``target`` (empty if unreached)."""
        return reconstruct_path(self.predecessors, self.source, target)


def dijkstra_search(
    network: RoadNetwork,
    source: int,
    target: Optional[int] = None,
    targets: Optional[Set[int]] = None,
    reverse: bool = False,
) -> DijkstraResult:
    """Run Dijkstra from ``source``.

    Parameters
    ----------
    target:
        Stop as soon as this node is settled (point-to-point query).
    targets:
        Stop as soon as *all* of these nodes are settled (multi-target
        pre-computation).  Unreachable targets simply remain at ``inf``.
    reverse:
        Search over incoming instead of outgoing edges (distances *to*
        ``source``), needed by Landmark pre-computation on directed graphs.
    """
    if source not in network:
        raise KeyError(f"unknown source node {source}")
    # arena.search honors target and targets together (and treats an unknown
    # target as never settling), exactly like the dict loop.
    result = kernel.arena_for(network.ensure_csr()).search(
        source, target=target, targets=targets, reverse=reverse
    )
    # The kernel tracks the discovery order, so the materialized dicts
    # reproduce the dict loop's key insertion order as well as its values --
    # consumers sensitive to dict iteration order (e.g. SPQ's majority-color
    # vote) see no difference.
    return DijkstraResult(
        source=source,
        distances=result.distances_dict(),
        predecessors=result.predecessors_dict(),
        settled=result.settled,
    )


def dijkstra_distances(
    network: RoadNetwork, source: int, reverse: bool = False
) -> DijkstraResult:
    """Full single-source Dijkstra (no early termination)."""
    return dijkstra_search(network, source, reverse=reverse)


def dijkstra_multi_target(
    network: RoadNetwork, source: int, targets: Iterable[int], reverse: bool = False
) -> DijkstraResult:
    """Dijkstra from ``source`` that stops once every target is settled."""
    return dijkstra_search(network, source, targets=set(targets), reverse=reverse)


def shortest_path(network: RoadNetwork, source: int, target: int) -> PathResult:
    """Point-to-point shortest path with early termination."""
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


def shortest_path_distance(network: RoadNetwork, source: int, target: int) -> float:
    """Shortest path distance only (``inf`` when unreachable)."""
    return shortest_path(network, source, target).distance
