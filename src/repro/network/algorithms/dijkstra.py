"""Dijkstra's algorithm (paper Section 2.1, "without pre-computation").

:func:`shortest_path` is the point-to-point query with early termination
that the DJ client runs on the received network, that the Landmark, ArcFlag
and SPQ clients fall back to when pre-computed packets are lost, and that
tests and oracles run restricted to a node subset (``allowed`` ids).  The
EB/NR clients search the nodes they received through the kernel's
per-index mask directly (:class:`~repro.air.region_scheme.RegionQuery`).
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

    ``allowed`` restricts the search to a node subset (ids) containing both
    endpoints; the answer -- distance, path, settled count -- is
    bit-identical to searching ``network.subgraph(allowed)``.  The ids
    become the kernel's per-index mask (:meth:`~repro.network.algorithms.
    kernel.KernelArena.node_mask`) once, here.
    """
    arena = kernel.arena_for(network.ensure_csr())
    mask = None if allowed is None else arena.node_mask(allowed)
    return arena.point_to_point(source, target, allowed=mask).path_result(target)
