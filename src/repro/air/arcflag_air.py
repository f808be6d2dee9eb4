"""Broadcast adaptation of ArcFlag (paper Section 3.2).

The cycle carries, besides the adjacency lists, one flag vector per edge
(one entry per region).  Selective tuning is impossible for the same reason
as Dijkstra, so the client receives the whole cycle; the flags only speed up
the local search.  When flag packets are lost, the affected flags are assumed
to be all ones (Section 6.2), which keeps the search correct but less pruned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.air.full_cycle import FullCycleScheme
from repro.air.registry import register_scheme
from repro.broadcast.packet import Segment, SegmentKind
from repro.index.arcflag import ArcFlagIndex
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.algorithms.paths import PathResult
from repro.air.substrate import PartitionedScheme

__all__ = ["ArcFlagBroadcastScheme", "AFParams"]


@dataclass(frozen=True)
class AFParams:
    """Tunable knobs of the ArcFlag broadcast adaptation."""

    num_regions: int = 16


@register_scheme(
    "AF",
    params=AFParams,
    description="Full-cycle ArcFlag adaptation: adjacency + edge flags (Section 3.2)",
    config_map={"num_regions": "arcflag_regions"},
)
class ArcFlagBroadcastScheme(PartitionedScheme, FullCycleScheme):
    """Adjacency plus per-edge region flags, received in full by the client."""

    index_class = ArcFlagIndex

    def _precomputed_segments(self) -> List[Segment]:
        flag_bytes = self.network.num_edges * self.layout.arcflag_bytes_per_edge(
            self.num_regions
        )
        return [
            Segment(
                name="arcflag-flags",
                kind=SegmentKind.PRECOMPUTED,
                size_bytes=flag_bytes,
                payload={"num_regions": self.num_regions},
            )
        ]

    def local_query(self, source: int, target: int, degraded: bool) -> PathResult:
        if degraded:
            # Lost flag packets: assume all bits set, i.e. fall back to an
            # unpruned Dijkstra over the received network.
            return shortest_path(self.network, source, target)
        return self.index.query(source, target)
