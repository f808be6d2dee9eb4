"""Landmark index (ALT; paper Section 2.1, [Goldberg & Harrelson 2005]).

A small set of anchor nodes ("landmarks") is chosen; for every node the
graph distances to and from each landmark are pre-computed and stored as a
*distance vector*.  The triangle inequality then yields a lower bound on the
graph distance between any two nodes, which A* uses to guide the search:

``LB(v, t) = max over landmarks l of max(d(l, t) - d(l, v), d(v, l) - d(t, l))``

The vectors are held as two ``landmarks x nodes`` matrices in snapshot
index order (``inf`` where a landmark and a node are disconnected).  A query
computes the bound of every node in one vectorized pass and hands it to the
kernel as the A* ``potential``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.network.algorithms import kernel
from repro.network.algorithms.paths import INFINITY, PathResult
from repro.network.graph import RoadNetwork

__all__ = ["LandmarkIndex", "select_landmarks_farthest", "select_landmarks_random"]

#: Bytes per stored distance value (32-bit float, matching the paper's
#: packet-size accounting granularity).
BYTES_PER_DISTANCE = 4


def select_landmarks_farthest(network: RoadNetwork, count: int, seed_node: Optional[int] = None) -> List[int]:
    """Greedy farthest-point landmark selection.

    Starting from an arbitrary node, repeatedly add the node whose minimum
    graph distance to the already-chosen landmarks is largest.  This is the
    standard ALT heuristic and gives well-spread anchors on road networks.
    """
    if count < 1:
        raise ValueError("need at least one landmark")
    node_ids = network.node_ids()
    if not node_ids:
        raise ValueError("cannot select landmarks on an empty network")
    start = seed_node if seed_node is not None else node_ids[0]

    # Distance-only kernel sweeps; the running minimum folds element-wise
    # over the flat label buffers (``map(min, ...)`` runs at C speed), and
    # the farthest scan still iterates ``node_ids`` in insertion order so
    # equal-distance ties pick the same landmark as before.
    arena = kernel.arena_for(network.ensure_csr())
    index_of = arena.csr.index_of
    landmarks = [start]
    min_distance: List[float] = arena.sssp(start, need_predecessors=False).dist
    while len(landmarks) < count:
        farthest = None
        farthest_distance = -1.0
        for node_id in node_ids:
            distance = min_distance[index_of[node_id]]
            if distance != INFINITY and distance > farthest_distance:
                farthest_distance = distance
                farthest = node_id
        if farthest is None:
            break
        landmarks.append(farthest)
        new_distances = arena.sssp(farthest, need_predecessors=False).dist
        min_distance = list(map(min, min_distance, new_distances))
    return landmarks


def select_landmarks_random(network: RoadNetwork, count: int, seed: int = 0) -> List[int]:
    """Uniform random landmark selection (cheaper, weaker bounds)."""
    import random

    node_ids = network.node_ids()
    rng = random.Random(seed)
    if count >= len(node_ids):
        return list(node_ids)
    return rng.sample(node_ids, count)


class LandmarkIndex:
    """Per-node landmark distance vectors plus the guided A* search."""

    def __init__(
        self,
        network: RoadNetwork,
        num_landmarks: int = 4,
        landmarks: Optional[Sequence[int]] = None,
        selection: str = "farthest",
    ) -> None:
        self.network = network
        started = time.perf_counter()
        if landmarks is not None:
            self.landmarks = list(landmarks)
        elif selection == "farthest":
            self.landmarks = select_landmarks_farthest(network, num_landmarks)
        elif selection == "random":
            self.landmarks = select_landmarks_random(network, num_landmarks)
        else:
            raise ValueError(f"unknown landmark selection strategy {selection!r}")

        # Two batched distance-only kernel sweeps (forward and reverse).
        self._csr = network.ensure_csr()
        arena = kernel.arena_for(self._csr)
        shape = (len(self.landmarks), self._csr.num_nodes)
        #: ``forward[l, v]``: distance from landmark ``l`` to node index ``v``.
        self.forward = np.empty(shape)
        #: ``backward[l, v]``: distance from node index ``v`` to landmark ``l``.
        self.backward = np.empty(shape)
        arena.many_to_many(self.landmarks, self.forward, None)
        arena.many_to_many(self.landmarks, self.backward, None, reverse=True)
        self.precomputation_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # Build/serve split: separable state
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Landmarks and distance matrices as plain values: ``forward`` and
        ``backward`` as little-endian float64 bytes, one row per landmark and
        one column per snapshot node (``inf`` where unreached)."""
        return {
            "landmarks": list(self.landmarks),
            "forward": np.ascontiguousarray(self.forward, dtype="<f8").tobytes(),
            "backward": np.ascontiguousarray(self.backward, dtype="<f8").tobytes(),
            "seconds": self.precomputation_seconds,
        }

    @classmethod
    def from_state(cls, network: RoadNetwork, state: Dict[str, Any]) -> "LandmarkIndex":
        """Reconstruct from :meth:`state` output without re-running selection
        (the matrices are read-only views of the state's bytes)."""
        self = object.__new__(cls)
        self.network = network
        self.landmarks = list(state["landmarks"])
        self._csr = network.ensure_csr()
        shape = (len(self.landmarks), self._csr.num_nodes)
        self.forward = np.frombuffer(state["forward"], dtype="<f8").reshape(shape)
        self.backward = np.frombuffer(state["backward"], dtype="<f8").reshape(shape)
        self.precomputation_seconds = state["seconds"]
        return self

    # ------------------------------------------------------------------
    # Lower bound and query
    # ------------------------------------------------------------------
    @property
    def num_landmarks(self) -> int:
        """Number of landmarks in the index."""
        return len(self.landmarks)

    def potentials(self, target: int) -> List[float]:
        """ALT lower bound from every node index to ``target``.

        Terms with an ``inf`` operand (a landmark disconnected from the
        node or the target) are left out, and the bound is never below 0.
        """
        column = self._csr.index_of[target]
        with np.errstate(invalid="ignore"):
            terms = np.concatenate(
                (
                    self.forward[:, column, None] - self.forward,
                    self.backward - self.backward[:, column, None],
                )
            )
        terms[~np.isfinite(terms)] = 0.0
        return terms.max(axis=0, initial=0.0).tolist()

    def lower_bound(self, node: int, target: int) -> float:
        """ALT lower bound on the graph distance from ``node`` to ``target``."""
        return self.potentials(target)[self._csr.index_of[node]]

    def query(self, source: int, target: int) -> PathResult:
        """Shortest path via A* guided by the landmark lower bound."""
        result = kernel.arena_for(self._csr).point_to_point(
            source, target, potential=self.potentials(target)
        )
        return result.path_result(target)

    def distance_vector(self, node: int) -> List[float]:
        """The per-node vector transmitted on the air (2 values per landmark)."""
        column = self._csr.index_of[node]
        pairs = np.stack((self.forward[:, column], self.backward[:, column]), axis=1)
        return pairs.ravel().tolist()

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def vector_bytes_per_node(self) -> int:
        """Bytes of pre-computed information broadcast per node."""
        return 2 * self.num_landmarks * BYTES_PER_DISTANCE

    def size_bytes(self) -> int:
        """Total bytes of all distance vectors."""
        return self.network.num_nodes * self.vector_bytes_per_node()
