"""Broadcast adaptation of the Landmark (ALT) method (paper Section 3.2).

The cycle carries a distance vector per node (distances to and from each
landmark).  The client receives the whole cycle and runs A* with the landmark
lower bound.  If vector packets are lost, the lower bound of the affected
nodes is taken as 0 (Section 6.2), degrading A* toward Dijkstra but keeping
it correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.air.full_cycle import FullCycleScheme
from repro.air.registry import register_scheme
from repro.broadcast.packet import Segment, SegmentKind
from repro.index.landmark import LandmarkIndex
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.algorithms.paths import PathResult

__all__ = ["LandmarkBroadcastScheme", "LDParams"]


@dataclass(frozen=True)
class LDParams:
    """Tunable knobs of the Landmark (ALT) broadcast adaptation."""

    num_landmarks: int = 4


@register_scheme(
    "LD",
    params=LDParams,
    description="Full-cycle Landmark/ALT adaptation: adjacency + landmark vectors (Section 3.2)",
    config_map={"num_landmarks": "num_landmarks"},
)
class LandmarkBroadcastScheme(FullCycleScheme):
    """Adjacency plus per-node landmark vectors, received in full."""

    index_class = LandmarkIndex

    def _precomputed_segments(self) -> List[Segment]:
        vector_bytes = self.network.num_nodes * self.layout.landmark_vector_bytes(
            self.num_landmarks
        )
        return [
            Segment(
                name="landmark-vectors",
                kind=SegmentKind.PRECOMPUTED,
                size_bytes=vector_bytes,
                payload={"landmarks": self.index.landmarks},
            )
        ]

    def local_query(self, source: int, target: int, degraded: bool) -> PathResult:
        if degraded:
            # Lost vectors: lower bounds fall back to 0, i.e. plain Dijkstra.
            return shortest_path(self.network, source, target)
        return self.index.query(source, target)
