"""ArcFlag index (paper Section 2.1, [Koehler et al. 2007]).

The network is partitioned into regions; every edge carries a bit vector
(*flag*) with one bit per region.  The bit for region ``r`` in the flag of
edge ``(u, v)`` is 1 when some shortest path from ``u`` to a node of ``r``
traverses ``(u, v)``.  A point-to-point search then considers only edges
whose bit for the target's region is set.

Construction uses the standard backward shortest-path-tree method: for each
border node ``b`` of a region ``r``, a reverse Dijkstra from ``b`` marks every
tree edge with bit ``r``; additionally, every edge whose head lies inside
``r`` gets bit ``r`` so that paths ending deep inside the region remain
coverable.  This is the conservative (correct, possibly non-minimal)
construction used by practical ArcFlag implementations.  The build runs
the reverse sweeps batched through the kernel and the tree test vectorized
over all edges; the per-border dict form is the test oracle
(``tests/oracles/arcflag.py``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Tuple

import numpy as np

from repro.network.algorithms import kernel
from repro.network.algorithms.astar import astar_search
from repro.network.algorithms.paths import PathResult
from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning

__all__ = ["ArcFlagIndex"]


class ArcFlagIndex:
    """Per-edge region flags plus the pruned point-to-point search."""

    def __init__(self, network: RoadNetwork, partitioning: Partitioning) -> None:
        self.network = network
        self.partitioning = partitioning
        self.num_regions = partitioning.num_regions
        #: flag bitmask per directed edge (source, target) -> int bitmask
        self.flags: Dict[Tuple[int, int], int] = {}
        self.precomputation_seconds = 0.0
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Batched kernel sweeps plus one vectorized tree test per border.

        For each border ``b`` of region ``r``, edge ``(u, v)`` lies on the
        backward shortest path tree when ``|d(v) + w(u, v) - d(u)| <= 1e-9 *
        max(1, d(u))`` over ``b``'s reverse labels ``d``; the test runs over
        all edges at once, and edges with an unreached endpoint (``inf``
        labels) are never flagged.  Flag bitmasks accumulate as Python ints,
        keeping arbitrary region counts exact.
        """
        started = time.perf_counter()
        network = self.network
        region_of = self.partitioning.region_of
        pairs = list(dict.fromkeys((e.source, e.target) for e in network.edges()))
        masks = [1 << region_of(target) for _, target in pairs]
        if pairs:
            csr = network.ensure_csr()
            arena = kernel.arena_for(csr)
            index_of = csr.index_of
            count = len(pairs)
            src_idx = np.fromiter((index_of[s] for s, _ in pairs), np.int64, count)
            tgt_idx = np.fromiter((index_of[t] for _, t in pairs), np.int64, count)
            min_w = np.fromiter(
                (network.edge_weight(s, t) for s, t in pairs), np.float64, count
            )
            for region in range(self.num_regions):
                borders = self.partitioning.border_nodes(region)
                if not borders:
                    continue
                bit = 1 << region
                flagged = np.zeros(count, dtype=bool)
                sweeps = arena.many_to_many(
                    borders, need_predecessors=False, reverse=True
                )
                for sweep in sweeps:
                    source_dist = sweep.dist_np[src_idx]
                    target_dist = sweep.dist_np[tgt_idx]
                    with np.errstate(invalid="ignore"):
                        on_tree = np.abs(
                            target_dist + min_w - source_dist
                        ) <= 1e-9 * np.maximum(1.0, source_dist)
                    flagged |= (
                        on_tree & np.isfinite(source_dist) & np.isfinite(target_dist)
                    )
                for position in np.flatnonzero(flagged).tolist():
                    masks[position] |= bit
        self.flags = dict(zip(pairs, masks))
        self.precomputation_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Build/serve split: separable state
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """The flag table as plain values (edge order preserved)."""
        return {"flags": self.flags, "seconds": self.precomputation_seconds}

    @classmethod
    def from_state(
        cls, network: RoadNetwork, partitioning: Partitioning, state: Dict[str, Any]
    ) -> "ArcFlagIndex":
        """Reconstruct from :meth:`state` output without re-running the sweeps."""
        self = object.__new__(cls)
        self.network = network
        self.partitioning = partitioning
        self.num_regions = partitioning.num_regions
        self.flags = {tuple(key): value for key, value in state["flags"].items()}
        self.precomputation_seconds = state["seconds"]
        return self

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> PathResult:
        """Shortest path using only edges flagged for the target's region."""
        target_bit = 1 << self.partitioning.region_of(target)

        def allowed(u: int, v: int) -> bool:
            return bool(self.flags.get((u, v), 0) & target_bit)

        return astar_search(self.network, source, target, edge_filter=allowed)

    # ------------------------------------------------------------------
    # Sizing (for broadcast cycle construction)
    # ------------------------------------------------------------------
    def flag_bytes_per_edge(self) -> int:
        """Bytes needed to transmit one edge flag (one bit per region)."""
        return (self.num_regions + 7) // 8

    def size_bytes(self) -> int:
        """Total bytes of pre-computed flag information."""
        return len(self.flags) * self.flag_bytes_per_edge()

    def flag_of(self, source: int, target: int) -> int:
        """Raw bitmask of the flag of edge ``(source, target)``."""
        return self.flags[(source, target)]
