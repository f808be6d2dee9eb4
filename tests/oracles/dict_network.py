"""Dict-of-lists reference for :class:`repro.network.graph.RoadNetwork`.

Production ``RoadNetwork`` stores one compiled CSR snapshot and stages
structural edits in a builder that the next edge read folds in.  This is the
plain form it must match read for read: a node dict in insertion order plus
forward and reverse adjacency lists, mutated with ``list.append`` and
``list.remove``.  :func:`compile_csr` lays those lists out as the CSR arrays
the production network must hold after every edit.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.network.csr import CSRGraph
from repro.network.delta import NetworkDelta, WeightChange
from repro.network.graph import Edge, Node

_FINGERPRINT_MOD = 1 << 128


def _element_hash(part: str) -> int:
    return int.from_bytes(hashlib.sha256(part.encode()).digest()[:16], "big")


def _node_element(node: Node) -> str:
    return f"n{node.node_id}:{node.x!r}:{node.y!r};"


def _edge_element(source: int, target: int, weight: float) -> str:
    return f"e{source}>{target}:{weight!r};"


class DictNetwork:
    """The dict-adjacency road network, mutation and read API only."""

    def __init__(self, name: str = "road-network") -> None:
        self.name = name
        self._nodes: Dict[int, Node] = {}
        self._adjacency: Dict[int, List[Tuple[int, float]]] = {}
        self._reverse_adjacency: Dict[int, List[Tuple[int, float]]] = {}
        self._num_edges = 0
        #: Pending changes per ``(source, target)`` pair, one per physical
        #: edge the batch moved.
        self._pending_changes: Dict[Tuple[int, int], List[WeightChange]] = {}
        self._dirty_nodes: set = set()
        self._structurally_dirty = False

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, x: float, y: float) -> Node:
        node = Node(node_id, float(x), float(y))
        if node_id not in self._nodes:
            self._adjacency[node_id] = []
            self._reverse_adjacency[node_id] = []
        self._nodes[node_id] = node
        self._structurally_dirty = True
        self._dirty_nodes.add(node_id)
        return node

    def add_edge(self, source: int, target: int, weight: float) -> Edge:
        if source not in self._nodes:
            raise KeyError(f"unknown source node {source}")
        if target not in self._nodes:
            raise KeyError(f"unknown target node {target}")
        if not 0.0 < float(weight) < math.inf:
            raise ValueError(
                f"edge weight must be positive and finite, got {float(weight)!r}"
            )
        self._adjacency[source].append((target, float(weight)))
        self._reverse_adjacency[target].append((source, float(weight)))
        self._num_edges += 1
        self._structurally_dirty = True
        self._dirty_nodes.update((source, target))
        return Edge(source, target, float(weight))

    def remove_edge(self, source: int, target: int) -> Edge:
        weights = [w for t, w in self._adjacency.get(source, ()) if t == target]
        if not weights:
            raise KeyError(f"no edge {source} -> {target}")
        weight = min(weights)
        self._adjacency[source].remove((target, weight))
        self._reverse_adjacency[target].remove((source, weight))
        self._num_edges -= 1
        self._structurally_dirty = True
        self._dirty_nodes.update((source, target))
        return Edge(source, target, weight)

    def update_edge_weight(self, source: int, target: int, weight: float) -> WeightChange:
        new_weight = float(weight)
        if not 0.0 < new_weight < math.inf:
            raise ValueError(
                f"updated edge weight must be positive and finite, got {weight!r}"
            )
        neighbors = self._adjacency.get(source)
        if neighbors is None:
            raise KeyError(f"no edge {source} -> {target}")
        candidates = [(w, i) for i, (t, w) in enumerate(neighbors) if t == target]
        if not candidates:
            raise KeyError(f"no edge {source} -> {target}")
        old_weight, index = min(candidates)
        change = WeightChange(source, target, old_weight, new_weight)
        if new_weight == old_weight:
            return change
        neighbors[index] = (target, new_weight)
        reverse = self._reverse_adjacency[target]
        reverse[reverse.index((source, old_weight))] = (source, new_weight)
        self._dirty_nodes.update((source, target))
        # The patched edge is the one a pending change last set to
        # ``old_weight``, if any: that change now ends at ``new_weight``.
        key = (source, target)
        pending = self._pending_changes.get(key, [])
        earlier = [c for c in pending if c.new_weight == old_weight]
        if not earlier:
            pending = pending + [change]
        else:
            first = pending.index(earlier[0])
            merged = WeightChange(source, target, earlier[0].old_weight, new_weight)
            pending = pending[:first] + ([] if merged.is_noop else [merged]) + pending[first + 1 :]
        if pending:
            self._pending_changes[key] = pending
        else:
            del self._pending_changes[key]
        return change

    def pending_delta(self) -> NetworkDelta:
        return NetworkDelta(
            changes=tuple(c for pair in self._pending_changes.values() for c in pair),
            structural=self._structurally_dirty,
            dirty_nodes=frozenset(self._dirty_nodes),
        )

    def clear_delta(self) -> None:
        self._pending_changes.clear()
        self._dirty_nodes.clear()
        self._structurally_dirty = False

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def node_ids(self) -> List[int]:
        return list(self._nodes)

    def nodes(self) -> Iterator[Node]:
        return iter(self._nodes.values())

    def edges(self) -> Iterator[Edge]:
        for source, neighbors in self._adjacency.items():
            for target, weight in neighbors:
                yield Edge(source, target, weight)

    def neighbors(self, node_id: int) -> List[Tuple[int, float]]:
        return list(self._adjacency[node_id])

    def in_neighbors(self, node_id: int) -> List[Tuple[int, float]]:
        return list(self._reverse_adjacency[node_id])

    def adjacency(self) -> Dict[int, List[Tuple[int, float]]]:
        return self._adjacency

    def reverse_adjacency(self) -> Dict[int, List[Tuple[int, float]]]:
        return self._reverse_adjacency

    def has_edge(self, source: int, target: int) -> bool:
        return any(t == target for t, _ in self._adjacency.get(source, ()))

    def edge_weight(self, source: int, target: int) -> float:
        weights = [w for t, w in self._adjacency.get(source, ()) if t == target]
        if not weights:
            raise KeyError(f"no edge {source} -> {target}")
        return min(weights)

    def coordinates(self, node_id: int) -> Tuple[float, float]:
        node = self._nodes[node_id]
        return (node.x, node.y)

    def total_weight(self) -> float:
        return sum(w for neighbors in self._adjacency.values() for _, w in neighbors)

    def fingerprint(self) -> str:
        """The multiset hash, recomputed in full from the dicts."""
        total = 0
        for node in self._nodes.values():
            total += _element_hash(_node_element(node))
            for target, weight in self._adjacency[node.node_id]:
                total += _element_hash(_edge_element(node.node_id, target, weight))
        return f"{total % _FINGERPRINT_MOD:032x}"


def build_dict_network(
    nodes: Iterable[Tuple[int, float, float]],
    edges: Iterable[Tuple[int, int, float]],
    name: str = "road-network",
) -> DictNetwork:
    network = DictNetwork(name=name)
    for node_id, x, y in nodes:
        network.add_node(node_id, x, y)
    for source, target, weight in edges:
        network.add_edge(source, target, weight)
    network.clear_delta()
    return network


def compile_csr(network, name: Optional[str] = None) -> CSRGraph:
    """The CSR arrays of ``network``'s adjacency lists.

    Node index order is ascending id order; each node's span lists its edges
    in the order of the network's forward (or reverse) list.  Works on any
    network exposing ``node_ids()``/``adjacency()``/``reverse_adjacency()``.
    """
    ids = sorted(network.node_ids())
    index_of = {nid: i for i, nid in enumerate(ids)}
    adjacency = network.adjacency()
    reverse = network.reverse_adjacency()

    def lay_out(lists) -> Tuple[array, array, array]:
        offsets = array("l", [0])
        targets = array("l")
        weights = array("d")
        for nid in ids:
            for target, weight in lists[nid]:
                targets.append(index_of[target])
                weights.append(weight)
            offsets.append(len(targets))
        return offsets, targets, weights

    return CSRGraph(
        ids, *lay_out(adjacency), *lay_out(reverse), name=name or f"{network.name}-csr"
    )
