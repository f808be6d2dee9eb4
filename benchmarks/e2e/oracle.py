"""Independent ground truth: scipy's Dijkstra over the network's edge list.

The oracle never touches the program's own search kernel.  It reads the
edge list once, keeps the cheapest of any parallel edges, and answers
distance questions with ``scipy.sparse.csgraph.dijkstra``.  Weight updates
are applied to its own copy of the arrays, so every network version the
refresh workload publishes has its own truth.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

Pair = Tuple[int, int]

#: Sources per scipy call: bounds the dense result block to a few MB.
_CHUNK = 256


class Oracle:
    """Shortest-path distances of one network version."""

    def __init__(self, node_ids: Sequence[int], edges: Iterable[Tuple[int, int, float]]):
        self._ids = list(node_ids)
        self._index = {node: i for i, node in enumerate(self._ids)}
        cheapest: Dict[Pair, float] = {}
        for source, target, weight in edges:
            key = (self._index[source], self._index[target])
            if weight < cheapest.get(key, math.inf):
                cheapest[key] = weight
        self._weights = cheapest

    @classmethod
    def of_network(cls, network) -> "Oracle":
        return cls(
            network.node_ids(),
            ((edge.source, edge.target, edge.weight) for edge in network.edges()),
        )

    def with_updates(self, updates: Iterable[Tuple[int, int, float]]) -> "Oracle":
        """A new oracle with the given edge weights replaced."""
        clone = object.__new__(Oracle)
        clone._ids = self._ids
        clone._index = self._index
        clone._weights = dict(self._weights)
        for source, target, weight in updates:
            key = (self._index[source], self._index[target])
            if key not in clone._weights:
                raise KeyError(f"no edge {source} -> {target}")
            clone._weights[key] = float(weight)
        return clone

    def adjacency(self) -> List[List[Tuple[int, float]]]:
        """Out-edges ``(head index, weight)`` of every node, by node index."""
        lists: List[List[Tuple[int, float]]] = [[] for _ in self._ids]
        for (tail, head), weight in sorted(self._weights.items()):
            lists[tail].append((head, weight))
        return lists

    def _matrix(self) -> csr_matrix:
        keys = list(self._weights)
        rows = np.fromiter((k[0] for k in keys), dtype=np.int64, count=len(keys))
        cols = np.fromiter((k[1] for k in keys), dtype=np.int64, count=len(keys))
        data = np.fromiter(self._weights.values(), dtype=np.float64, count=len(keys))
        size = len(self._ids)
        return csr_matrix((data, (rows, cols)), shape=(size, size))

    def distances(self, pairs: Iterable[Pair]) -> Dict[Pair, float]:
        """Exact distance of every pair (``inf`` when unreachable)."""
        by_source: Dict[int, List[int]] = {}
        for source, target in set(pairs):
            by_source.setdefault(source, []).append(target)
        if not by_source:
            return {}
        graph = self._matrix()
        sources = sorted(by_source)
        truth: Dict[Pair, float] = {}
        for start in range(0, len(sources), _CHUNK):
            chunk = sources[start : start + _CHUNK]
            rows = dijkstra(
                graph, directed=True, indices=[self._index[s] for s in chunk]
            )
            for row, source in zip(rows, chunk):
                for target in by_source[source]:
                    truth[(source, target)] = float(row[self._index[target]])
        return truth


def agrees(answer: float, found: bool, truth: float) -> bool:
    """Whether a served distance matches the oracle (relative 1e-9)."""
    if math.isinf(truth):
        return not found
    return found and abs(answer - truth) <= 1e-9 * max(1.0, truth)
