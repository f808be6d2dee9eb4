"""Broadcast adaptation of the shortest path quad-tree (paper Section 3.2).

SPQ would broadcast a colored quad-tree per node alongside its adjacency
list.  Selective tuning fails for the same reason as Dijkstra (the next node
to visit may already have passed), so the only viable option is to receive
the entire cycle -- and the quad-trees make that cycle several times longer
than the network itself (Table 1), which is why the paper excludes SPQ from
the device experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.air.full_cycle import FullCycleScheme
from repro.air.registry import register_scheme
from repro.broadcast.packet import Segment, SegmentKind
from repro.index.spq import ShortestPathQuadTreeIndex
from repro.network.algorithms.paths import PathResult
from repro.network.algorithms.dijkstra import shortest_path

__all__ = ["SPQBroadcastScheme", "SPQParams"]


@dataclass(frozen=True)
class SPQParams:
    """Tunable knobs of the shortest path quad-tree adaptation."""

    max_depth: int = 16


@register_scheme(
    "SPQ",
    params=SPQParams,
    description="Full-cycle SPQ adaptation: adjacency + per-node quad-trees (Table 1 only)",
    comparison=False,
)
class SPQBroadcastScheme(FullCycleScheme):
    """Adjacency plus one colored quad-tree per node, received in full."""

    index_class = ShortestPathQuadTreeIndex

    def _precomputed_segments(self) -> List[Segment]:
        return [
            Segment(
                name="spq-quadtrees",
                kind=SegmentKind.PRECOMPUTED,
                size_bytes=self.layout.spq_bytes(self.index.total_blocks()),
                payload={"blocks": self.index.total_blocks()},
            )
        ]

    def local_query(self, source: int, target: int, degraded: bool) -> PathResult:
        if degraded:
            # A lost quad-tree means all incident edges of the affected node
            # must be considered (Section 6.2); the safe fallback over the
            # fully received network is a plain Dijkstra.
            return shortest_path(self.network, source, target)
        return self.index.query(source, target)
