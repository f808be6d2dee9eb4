"""Broadcast adaptation of Dijkstra's algorithm (paper Section 3.2).

No pre-computation: the cycle contains only the adjacency lists, which is why
it is the shortest possible cycle (Table 1).  The client listens to the whole
cycle, stores the entire network, and runs Dijkstra locally -- minimal access
latency, but maximal tuning time and memory.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Optional

from repro.air.full_cycle import FullCycleScheme
from repro.air.registry import register_scheme
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.algorithms.paths import PathResult

__all__ = ["DijkstraBroadcastScheme", "DJParams"]


@dataclass(frozen=True)
class DJParams:
    """Dijkstra broadcasts plain adjacency data; nothing to tune."""


@register_scheme(
    "DJ",
    params=DJParams,
    description="Full-cycle Dijkstra adaptation: adjacency only (Section 3.2)",
)
class DijkstraBroadcastScheme(FullCycleScheme):
    """Adjacency-only broadcast cycle with local Dijkstra processing."""

    def shadow_rebuild(self, network, delta) -> Optional["DijkstraBroadcastScheme"]:
        """A replacement sharing this instance's cycle as it is.

        DJ has no pre-computed state, and its data segments are
        weight-independent -- the chunking follows node-id order and the
        record sizes are degree-based -- so a weight-only delta changes
        nothing on the air (trivially bit-identical to a from-scratch
        build).  Structural deltas fall back to a full rebuild.
        """
        if network is not self.network or delta.structural:
            return None
        started = time.perf_counter()
        return copy.copy(self)._track_refresh(started)

    def local_query(self, source: int, target: int, degraded: bool) -> PathResult:
        # Dijkstra has no pre-computed information, so there is nothing to
        # degrade: lost adjacency packets were already re-received.
        return shortest_path(self.network, source, target)
