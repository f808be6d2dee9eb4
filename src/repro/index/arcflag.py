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

The flags are stored per edge of the network's CSR snapshot, in its edge
order, and decoded once into a flag-byte matrix, so any region count
works.  A query for a target in region ``r`` weighs every edge without bit
``r`` ``inf`` in a copy of the weights the index was built over -- one
vectorized pass -- and searches them in one compiled sweep
(``KernelArena.point_to_point(weights=...)``).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.network.algorithms import kernel
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
        started = time.perf_counter()
        self._bind()
        self._build()
        self.precomputation_seconds = time.perf_counter() - started

    def _bind(self) -> None:
        """Pin the snapshot the flags are aligned with and a float64 copy of
        its weights, which queries search even after an in-place patch."""
        self._csr = self.network.ensure_csr()
        self._weights = np.frombuffer(self._csr.fwd_weights, dtype=np.float64).copy()

    def _decode_flags(self) -> None:
        """The flag-byte matrix: bit ``r`` of an edge's bitmask is bit
        ``r % 8`` of row ``r // 8``."""
        width = self.flag_bytes_per_edge()
        packed = b"".join(flag.to_bytes(width, "little") for flag in self.edge_flags)
        self._flag_bytes = (
            np.frombuffer(packed, dtype=np.uint8).reshape(len(self.edge_flags), width).T.copy()
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        """Batched kernel sweeps plus one vectorized tree test per border.

        For each border ``b`` of region ``r``, edge ``(u, v)`` lies on the
        backward shortest path tree when ``|d(v) + w(u, v) - d(u)| <= 1e-9 *
        max(1, d(u))`` over ``b``'s reverse labels ``d``, where ``w`` is the
        minimum weight among the parallel ``u -> v`` edges (which therefore
        share one flag); the test runs over all edges at once, and edges
        with an unreached endpoint (``inf`` labels) are never flagged.  Flag
        bitmasks accumulate as Python ints, keeping arbitrary region counts
        exact.
        """
        csr = self._csr
        tails, heads = self._csr.edge_endpoints()
        masks = [1 << region for region in self.partitioning.node_region[heads].tolist()]
        if masks:
            arena = kernel.arena_for(csr)
            weights = np.frombuffer(csr.fwd_weights, dtype=np.float64)
            pairs, pair_of = np.unique(
                tails * csr.num_nodes + heads, return_inverse=True
            )
            pair_min = np.full(len(pairs), np.inf)
            np.minimum.at(pair_min, pair_of, weights)
            min_w = pair_min[pair_of]
            for region_index in range(self.num_regions):
                borders = self.partitioning.border_nodes(region_index)
                if not borders:
                    continue
                bit = 1 << region_index
                flagged = np.zeros(len(masks), dtype=bool)
                dist = np.empty((len(borders), csr.num_nodes))
                arena.many_to_many(borders, dist, None, reverse=True)
                for row in dist:
                    source_dist = row[tails]
                    target_dist = row[heads]
                    with np.errstate(invalid="ignore"):
                        on_tree = np.abs(
                            target_dist + min_w - source_dist
                        ) <= 1e-9 * np.maximum(1.0, source_dist)
                    flagged |= (
                        on_tree & np.isfinite(source_dist) & np.isfinite(target_dist)
                    )
                for position in np.flatnonzero(flagged).tolist():
                    masks[position] |= bit
        #: Region bitmask of every snapshot edge, in the snapshot's edge order.
        self.edge_flags: List[int] = masks
        self._decode_flags()

    # ------------------------------------------------------------------
    # Build/serve split: separable state
    # ------------------------------------------------------------------
    @property
    def flags(self) -> Dict[Tuple[int, int], int]:
        """``(source, target) -> bitmask``, keyed in ``network.edges()`` order.

        Parallel edges share one entry.  A read view for inspection and
        tests: the index (and its :meth:`state`) keeps :attr:`edge_flags`.
        """
        ids = self._csr.ids
        tails, heads = self._csr.edge_endpoints()
        by_pair = dict(
            zip(
                zip([ids[i] for i in tails.tolist()], [ids[i] for i in heads.tolist()]),
                self.edge_flags,
            )
        )
        return {
            (source, target): by_pair[(source, target)]
            for source, target, _ in self.network.edge_tuples()
        }

    def state(self) -> Dict[str, Any]:
        """The flags as plain values: one bitmask per snapshot edge, in the
        snapshot's edge order (the restore's network has the same
        snapshot, as artifacts are keyed by its fingerprint)."""
        return {"edge_flags": self.edge_flags, "seconds": self.precomputation_seconds}

    @classmethod
    def from_state(
        cls, network: RoadNetwork, partitioning: Partitioning, state: Dict[str, Any]
    ) -> "ArcFlagIndex":
        """Reconstruct from :meth:`state` output without re-running the sweeps."""
        self = object.__new__(cls)
        self.network = network
        self.partitioning = partitioning
        self.num_regions = partitioning.num_regions
        self._bind()
        self.edge_flags = list(state["edge_flags"])
        if len(self.edge_flags) != len(self._csr.fwd_targets):
            raise ValueError(
                f"{len(self.edge_flags)} edge flags for a snapshot of "
                f"{len(self._csr.fwd_targets)} edges"
            )
        self._decode_flags()
        self.precomputation_seconds = state["seconds"]
        return self

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, source: int, target: int) -> PathResult:
        """Shortest path using only edges flagged for the target's region."""
        region = self.partitioning.region_of(target)
        flagged = self._flag_bytes[region >> 3] & (1 << (region & 7))
        weights = np.where(flagged, self._weights, np.inf)
        result = kernel.arena_for(self._csr).point_to_point(source, target, weights=weights)
        return result.path_result(target)

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
        csr = self._csr
        tail, head = csr.index_of[source], csr.index_of[target]
        for position in range(csr.fwd_offsets[tail], csr.fwd_offsets[tail + 1]):
            if csr.fwd_targets[position] == head:
                return self.edge_flags[position]
        raise KeyError((source, target))
