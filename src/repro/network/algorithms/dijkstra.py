"""Dijkstra's algorithm (paper Section 2.1, "without pre-computation").

:func:`shortest_path` is the point-to-point query with early termination
that the DJ client runs on the received network, that the EB/NR clients run
restricted to the nodes they received (``allowed``), and that the Landmark,
ArcFlag and SPQ clients fall back to when pre-computed packets are lost.
Single-source, multi-target and batched sweeps -- Landmark, ArcFlag, HiTi
and border-path pre-computation -- call :class:`~repro.network.algorithms.
kernel.KernelArena` directly.

Every search runs on the network's CSR snapshot
(:meth:`~repro.network.graph.RoadNetwork.ensure_csr`, the network's one
stored form) through the array kernel
(:mod:`repro.network.algorithms.kernel`), whose answers -- distance, path,
settled count -- are bit-identical to the textbook dict Dijkstra's.  That
dict loop is the test oracle (``tests/oracles/dijkstra.py``).  Every weight
being strictly positive (the network's one weight rule), the search,
masked or not, is one compiled scipy sweep (edges into nodes outside
``allowed`` weighted ``inf``): the distance
is the target's converged label, the settled count the target's rank in
``(distance, id)`` order plus one, and the path walks back over in-edges on
the converged labels, reading the snapshot's flat array buffers (shared by
serving workers through the mapped segment) rather than its tuple rows
(built per process on first read).  No predecessor tree is derived.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.network.algorithms import kernel
from repro.network.algorithms.paths import PathResult
from repro.network.graph import RoadNetwork

__all__ = ["shortest_path"]


def shortest_path(
    network: RoadNetwork,
    source: int,
    target: int,
    allowed: Optional[Iterable[int]] = None,
) -> PathResult:
    """Point-to-point shortest path with early termination.

    ``allowed`` restricts the search to a node subset containing both
    endpoints; the answer -- distance, path, settled count -- is
    bit-identical to searching ``network.subgraph(allowed)``.
    """
    arena = kernel.arena_for(network.ensure_csr())
    return arena.point_to_point(source, target, allowed=allowed).path_result(target)
