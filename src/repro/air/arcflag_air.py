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
from repro.network.graph import RoadNetwork
from repro.partitioning.kdtree import build_kdtree_partitioning
from repro.air.records import DEFAULT_LAYOUT, RecordLayout
from repro.serialize.graphs import partitioning_state, restore_partitioning

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
class ArcFlagBroadcastScheme(FullCycleScheme):
    """Adjacency plus per-edge region flags, received in full by the client."""

    short_name = "AF"

    def __init__(
        self,
        network: RoadNetwork,
        num_regions: int = 16,
        layout: RecordLayout = DEFAULT_LAYOUT,
    ) -> None:
        super().__init__(network, layout)
        self._configure(num_regions=num_regions)
        self._build_state()

    def _build_state(self) -> None:
        self.partitioning = build_kdtree_partitioning(self.network, self.num_regions)
        self.index = ArcFlagIndex(self.network, self.partitioning)
        self.precomputation_seconds = self.index.precomputation_seconds

    def _artifact_state(self) -> dict:
        return {
            "partitioning": partitioning_state(self.partitioning),
            "index": self.index.state(),
        }

    def _restore_state(self, state: dict) -> None:
        self.partitioning = restore_partitioning(self.network, state["partitioning"])
        self.index = ArcFlagIndex.from_state(
            self.network, self.partitioning, state["index"]
        )

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
