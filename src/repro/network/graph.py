"""Directed, weighted, spatially embedded road-network graph.

The paper (Section 2.1) models a road network as a directed weighted graph
``G = (V, E)`` where every node carries an identifier and Euclidean
coordinates ``<id, x, y>`` and every edge is a triplet ``<id_i, id_j, w_ij>``.
:class:`RoadNetwork` is that model, with the adjacency-list layout the
broadcast schemes serialize on the air.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.network.csr import CSRGraph, ImmutableSnapshotError
from repro.network.delta import InvalidUpdateError, NetworkDelta, WeightChange

__all__ = ["Node", "Edge", "RoadNetwork"]

#: Modulus of the fingerprint's 128-bit multiset sum (see ``fingerprint()``).
_FINGERPRINT_MOD = 1 << 128


def _element_hash(part: str) -> int:
    """128-bit hash of one fingerprint element (node or edge record)."""
    return int.from_bytes(hashlib.sha256(part.encode()).digest()[:16], "big")


@dataclass(frozen=True)
class Node:
    """A network node ``<id, x, y>`` (paper Section 2.1)."""

    node_id: int
    x: float
    y: float

    def coordinates(self) -> Tuple[float, float]:
        """Return the ``(x, y)`` coordinate pair."""
        return (self.x, self.y)


@dataclass(frozen=True)
class Edge:
    """A directed edge ``<id_i, id_j, w_ij>`` (paper Section 2.1)."""

    source: int
    target: int
    weight: float

    def reversed(self) -> "Edge":
        """Return the edge with source and target swapped."""
        return Edge(self.target, self.source, self.weight)


class RoadNetwork:
    """A directed weighted graph with node coordinates.

    The class keeps both forward and reverse adjacency lists so that
    forward and backward Dijkstra searches (needed by the pre-computation
    indexes) are equally cheap.

    Parameters
    ----------
    name:
        Optional human-readable name (e.g. ``"germany"``) used by the
        experiment harness when reporting results.
    """

    def __init__(self, name: str = "road-network") -> None:
        self.name = name
        self._nodes: Dict[int, Node] = {}
        self._adjacency: Dict[int, List[Tuple[int, float]]] = {}
        self._reverse_adjacency: Dict[int, List[Tuple[int, float]]] = {}
        self._num_edges = 0
        self._fingerprint_cache: Optional[str] = None
        #: 128-bit multiset sum behind ``fingerprint()``; ``None`` until the
        #: first full computation, then maintained in O(1) per mutation.
        self._fingerprint_sum: Optional[int] = None
        # Pending-change tracking (see pending_delta()): weight changes are
        # coalesced per directed edge; structural mutations set a flag that
        # forces consumers onto the full-rebuild path.
        self._pending_changes: Dict[Tuple[int, int], WeightChange] = {}
        self._dirty_nodes: set = set()
        self._structurally_dirty = False
        # CSR snapshot cache (see csr_snapshot()): one compiled CSRGraph per
        # fingerprint, patched in place on weight updates and invalidated by
        # structural mutations, which change index maps and adjacency spans.
        self._csr: Optional[CSRGraph] = None
        self._csr_fingerprint: Optional[str] = None
        self._csr_builds = 0
        self._csr_patches = 0

    # ------------------------------------------------------------------
    # Fingerprint maintenance
    # ------------------------------------------------------------------
    @staticmethod
    def _node_element(node: Node) -> str:
        return f"n{node.node_id}:{node.x!r}:{node.y!r};"

    @staticmethod
    def _edge_element(source: int, target: int, weight: float) -> str:
        return f"e{source}>{target}:{weight!r};"

    def _fingerprint_add(self, part: str) -> None:
        self._fingerprint_cache = None
        if self._fingerprint_sum is not None:
            self._fingerprint_sum = (
                self._fingerprint_sum + _element_hash(part)
            ) % _FINGERPRINT_MOD

    def _fingerprint_remove(self, part: str) -> None:
        self._fingerprint_cache = None
        if self._fingerprint_sum is not None:
            self._fingerprint_sum = (
                self._fingerprint_sum - _element_hash(part)
            ) % _FINGERPRINT_MOD

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node_id: int, x: float, y: float) -> Node:
        """Add (or replace) a node and return it."""
        node = Node(node_id, float(x), float(y))
        previous = self._nodes.get(node_id)
        if previous is None:
            self._adjacency[node_id] = []
            self._reverse_adjacency[node_id] = []
        else:
            self._fingerprint_remove(self._node_element(previous))
        self._nodes[node_id] = node
        self._fingerprint_add(self._node_element(node))
        self._structurally_dirty = True
        self._csr = None
        self._dirty_nodes.add(node_id)
        return node

    def add_edge(self, source: int, target: int, weight: float) -> Edge:
        """Add a directed edge; both endpoints must already exist."""
        if source not in self._nodes:
            raise KeyError(f"unknown source node {source}")
        if target not in self._nodes:
            raise KeyError(f"unknown target node {target}")
        if weight < 0:
            raise ValueError(f"edge weight must be non-negative, got {weight}")
        self._adjacency[source].append((target, float(weight)))
        self._reverse_adjacency[target].append((source, float(weight)))
        self._num_edges += 1
        self._fingerprint_add(self._edge_element(source, target, float(weight)))
        self._structurally_dirty = True
        self._csr = None
        self._dirty_nodes.update((source, target))
        return Edge(source, target, float(weight))

    def add_bidirectional_edge(self, a: int, b: int, weight: float) -> None:
        """Add the pair of directed edges ``a -> b`` and ``b -> a``."""
        self.add_edge(a, b, weight)
        self.add_edge(b, a, weight)

    def remove_edge(self, source: int, target: int) -> Edge:
        """Remove one directed edge ``source -> target`` and return it.

        With parallel edges, the minimum-weight one (the one shortest paths
        use) is removed.  Raises ``KeyError`` if no such edge exists.
        """
        weights = [w for t, w in self._adjacency.get(source, ()) if t == target]
        if not weights:
            raise KeyError(f"no edge {source} -> {target}")
        weight = min(weights)
        self._adjacency[source].remove((target, weight))
        self._reverse_adjacency[target].remove((source, weight))
        self._num_edges -= 1
        self._fingerprint_remove(self._edge_element(source, target, weight))
        self._structurally_dirty = True
        self._csr = None
        self._dirty_nodes.update((source, target))
        return Edge(source, target, weight)

    # ------------------------------------------------------------------
    # Dynamic weight updates
    # ------------------------------------------------------------------
    def update_edge_weight(self, source: int, target: int, weight: float) -> WeightChange:
        """Change the weight of the existing edge ``source -> target``.

        With parallel edges, the minimum-weight one (the one shortest paths
        use) is updated -- consistent with :meth:`edge_weight` and
        :meth:`remove_edge`.  Unlike :meth:`add_edge`, the new weight must be
        strictly positive: dynamic updates model travel costs (congestion,
        closures), and a non-positive cost would let a "closure" act as a
        free teleport.  Raises ``KeyError`` if the edge does not exist and
        ``ValueError`` for a weight that is not positive and finite.

        The change is recorded in the network's pending delta (see
        :meth:`pending_delta`), coalesced per edge, so the engine's
        incremental refresh knows exactly which edges moved and by how much.
        """
        new_weight = float(weight)
        if not 0.0 < new_weight < math.inf:
            raise ValueError(
                f"updated edge weight must be positive and finite, got {weight}"
            )
        if self._csr is not None and self._csr.buffer_backed:
            # Refuse *before* touching the adjacency lists: the cached
            # snapshot maps a shared read-only segment, so the patch below
            # would fail after the dict state had already moved, leaving
            # network and snapshot permanently disagreeing.
            raise ImmutableSnapshotError(
                "serving snapshots are immutable; refresh via re-publish "
                f"(network {self.name!r} serves a shared-memory snapshot, "
                "so in-place weight updates cannot apply)"
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
        self._fingerprint_remove(self._edge_element(source, target, old_weight))
        self._fingerprint_add(self._edge_element(source, target, new_weight))
        if self._csr is not None:
            # Weight-only delta: keep the snapshot fresh by patching the one
            # CSR entry in place instead of recompiling the arrays.
            self._csr.patch_weight(source, target, old_weight, new_weight)
            self._csr_patches += 1
            self._csr_fingerprint = self.fingerprint()
        self._dirty_nodes.update((source, target))
        key = (source, target)
        pending = self._pending_changes.get(key)
        if pending is None:
            self._pending_changes[key] = change
        elif pending.old_weight == new_weight:
            # The edge is back where the last refresh saw it: net no-op.
            del self._pending_changes[key]
        else:
            self._pending_changes[key] = WeightChange(
                source, target, pending.old_weight, new_weight
            )
        return change

    def apply_updates(self, updates: Iterable) -> List[WeightChange]:
        """Apply a batch of edge-weight updates and return the changes.

        Each update may be an :class:`~repro.network.delta.EdgeUpdate`, any
        object with ``source``/``target``/``weight`` attributes, or a plain
        ``(source, target, weight)`` tuple.

        The batch is all or nothing: every update is checked first -- three
        fields, integer node ids, an existing edge, a positive finite weight
        -- and the first that fails raises :class:`InvalidUpdateError` with
        its index before anything is mutated.  The checked updates are then
        applied in order through :meth:`update_edge_weight` (with its
        pending-delta coalescing).
        """
        batch = [
            self._checked_update(index, update)
            for index, update in enumerate(updates)
        ]
        return [self.update_edge_weight(*update) for update in batch]

    def _checked_update(self, index: int, update) -> Tuple[int, int, float]:
        """One batch item as ``(source, target, weight)``, or a typed error."""
        try:
            if hasattr(update, "source") and hasattr(update, "target"):
                source, target, weight = update.source, update.target, update.weight
            else:
                source, target, weight = update
            source, target = operator.index(source), operator.index(target)
            weight = float(weight)
        except (AttributeError, TypeError, ValueError):
            raise InvalidUpdateError(
                index, f"expected (source, target, weight), got {update!r}"
            ) from None
        if not self.has_edge(source, target):
            raise InvalidUpdateError(index, f"no edge {source} -> {target}")
        if not 0.0 < weight < math.inf:
            raise InvalidUpdateError(
                index, f"edge weight must be positive and finite, got {weight!r}"
            )
        return source, target, weight

    def pending_delta(self) -> NetworkDelta:
        """A snapshot of everything changed since :meth:`clear_delta`.

        The engine's :meth:`~repro.engine.system.AirSystem.refresh` reads
        this to route cached schemes through their incremental rebuilds
        (weight-only deltas) or a full rebuild (structural deltas).
        """
        return NetworkDelta(
            changes=tuple(self._pending_changes.values()),
            structural=self._structurally_dirty,
            dirty_nodes=frozenset(self._dirty_nodes),
        )

    def clear_delta(self) -> None:
        """Reset pending-change tracking (the current state is the baseline)."""
        self._pending_changes.clear()
        self._dirty_nodes.clear()
        self._structurally_dirty = False

    @property
    def has_pending_delta(self) -> bool:
        """``True`` when mutations happened since the last :meth:`clear_delta`."""
        return bool(
            self._pending_changes or self._dirty_nodes or self._structurally_dirty
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the network."""
        return self._num_edges

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> Node:
        """Return the :class:`Node` for ``node_id``."""
        return self._nodes[node_id]

    def has_node(self, node_id: int) -> bool:
        """Return ``True`` if ``node_id`` is a node of the network."""
        return node_id in self._nodes

    def has_edge(self, source: int, target: int) -> bool:
        """Return ``True`` if the directed edge ``source -> target`` exists."""
        return any(t == target for t, _ in self._adjacency.get(source, ()))

    def edge_weight(self, source: int, target: int) -> float:
        """Return the weight of ``source -> target``.

        If parallel edges exist, the minimum weight is returned (the one any
        shortest path would use).
        """
        weights = [w for t, w in self._adjacency.get(source, ()) if t == target]
        if not weights:
            raise KeyError(f"no edge {source} -> {target}")
        return min(weights)

    def node_ids(self) -> List[int]:
        """Return all node identifiers (insertion order)."""
        return list(self._nodes)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all :class:`Node` objects."""
        return iter(self._nodes.values())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all directed :class:`Edge` objects."""
        for source, neighbors in self._adjacency.items():
            for target, weight in neighbors:
                yield Edge(source, target, weight)

    def neighbors(self, node_id: int) -> List[Tuple[int, float]]:
        """Return the out-neighbors of ``node_id`` as ``(target, weight)``."""
        return list(self._adjacency[node_id])

    def in_neighbors(self, node_id: int) -> List[Tuple[int, float]]:
        """Return the in-neighbors of ``node_id`` as ``(source, weight)``."""
        return list(self._reverse_adjacency[node_id])

    def out_degree(self, node_id: int) -> int:
        """Number of outgoing edges of ``node_id``."""
        return len(self._adjacency[node_id])

    def in_degree(self, node_id: int) -> int:
        """Number of incoming edges of ``node_id``."""
        return len(self._reverse_adjacency[node_id])

    def adjacency(self) -> Dict[int, List[Tuple[int, float]]]:
        """Return the forward adjacency mapping (shared, do not mutate)."""
        return self._adjacency

    def reverse_adjacency(self) -> Dict[int, List[Tuple[int, float]]]:
        """Return the reverse adjacency mapping (shared, do not mutate)."""
        return self._reverse_adjacency

    def coordinates(self, node_id: int) -> Tuple[float, float]:
        """Return the ``(x, y)`` coordinates of ``node_id``."""
        node = self._nodes[node_id]
        return (node.x, node.y)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)`` over all nodes."""
        if not self._nodes:
            raise ValueError("bounding box of an empty network is undefined")
        xs = [node.x for node in self._nodes.values()]
        ys = [node.y for node in self._nodes.values()]
        return (min(xs), min(ys), max(xs), max(ys))

    def euclidean_distance(self, a: int, b: int) -> float:
        """Euclidean distance between the coordinates of nodes ``a`` and ``b``."""
        node_a = self._nodes[a]
        node_b = self._nodes[b]
        return ((node_a.x - node_b.x) ** 2 + (node_a.y - node_b.y) ** 2) ** 0.5

    def total_weight(self) -> float:
        """Sum of all edge weights (used for sanity statistics)."""
        return sum(w for neighbors in self._adjacency.values() for _, w in neighbors)

    # ------------------------------------------------------------------
    # Derived networks
    # ------------------------------------------------------------------
    def subgraph(self, node_ids: Iterable[int], name: Optional[str] = None) -> "RoadNetwork":
        """Return the induced subgraph over ``node_ids``.

        Edges are kept only when both endpoints are inside the node set.
        The air-index clients use this to run Dijkstra in the union of the
        received regions.
        """
        keep = set(node_ids)
        sub = RoadNetwork(name=name or f"{self.name}-subgraph")
        for node_id in keep:
            node = self._nodes[node_id]
            sub.add_node(node.node_id, node.x, node.y)
        for node_id in keep:
            for target, weight in self._adjacency[node_id]:
                if target in keep:
                    sub.add_edge(node_id, target, weight)
        sub.clear_delta()  # a finished artifact, not a pile of pending updates
        return sub

    def reversed(self) -> "RoadNetwork":
        """Return a copy of the network with every edge direction flipped."""
        rev = RoadNetwork(name=f"{self.name}-reversed")
        for node in self._nodes.values():
            rev.add_node(node.node_id, node.x, node.y)
        for source, neighbors in self._adjacency.items():
            for target, weight in neighbors:
                rev.add_edge(target, source, weight)
        rev.clear_delta()
        return rev

    def copy(self) -> "RoadNetwork":
        """Return a deep copy of the network."""
        dup = RoadNetwork(name=self.name)
        for node in self._nodes.values():
            dup.add_node(node.node_id, node.x, node.y)
        for source, neighbors in self._adjacency.items():
            for target, weight in neighbors:
                dup.add_edge(source, target, weight)
        dup.clear_delta()
        return dup

    # ------------------------------------------------------------------
    # Connectivity helpers
    # ------------------------------------------------------------------
    def weakly_connected_components(self) -> List[List[int]]:
        """Return the weakly connected components (lists of node ids)."""
        seen: Dict[int, bool] = {}
        components: List[List[int]] = []
        for start in self._nodes:
            if start in seen:
                continue
            stack = [start]
            seen[start] = True
            component = []
            while stack:
                current = stack.pop()
                component.append(current)
                for neighbor, _ in self._adjacency[current]:
                    if neighbor not in seen:
                        seen[neighbor] = True
                        stack.append(neighbor)
                for neighbor, _ in self._reverse_adjacency[current]:
                    if neighbor not in seen:
                        seen[neighbor] = True
                        stack.append(neighbor)
            components.append(component)
        return components

    def largest_component(self) -> "RoadNetwork":
        """Return the induced subgraph of the largest weakly connected component."""
        components = self.weakly_connected_components()
        if not components:
            return RoadNetwork(name=self.name)
        largest = max(components, key=len)
        return self.subgraph(largest, name=self.name)

    def is_weakly_connected(self) -> bool:
        """Return ``True`` if the network forms a single weak component."""
        if not self._nodes:
            return True
        return len(self.weakly_connected_components()) == 1

    def fingerprint(self) -> str:
        """A stable digest of the network's structure and weights.

        Two networks with the same nodes, coordinates, edges and weights get
        the same fingerprint regardless of insertion order.  The engine uses
        it to key cached broadcast cycles, so a rebuilt-but-identical network
        hits the cache while any topological change misses it.

        The digest is the 128-bit sum, modulo ``2**128``, of one sha256-based
        hash per element (node records and edge records), i.e. a multiset
        hash.  That construction is what makes dynamic networks cheap: every
        mutating method (``add_node``/``add_edge``/``remove_edge``/
        ``update_edge_weight``) adjusts the sum in O(1) instead of forcing an
        O(V + E) re-hash, so the engine can re-key its cycle cache after each
        weight-update batch at constant cost.  The full sum is computed
        lazily on first use; repeated calls on an unchanged network cost a
        dictionary read.
        """
        if self._fingerprint_cache is not None:
            return self._fingerprint_cache
        if self._fingerprint_sum is None:
            total = 0
            for node in self._nodes.values():
                total += _element_hash(self._node_element(node))
                for target, weight in self._adjacency[node.node_id]:
                    total += _element_hash(self._edge_element(node.node_id, target, weight))
            self._fingerprint_sum = total % _FINGERPRINT_MOD
        self._fingerprint_cache = f"{self._fingerprint_sum:032x}"
        return self._fingerprint_cache

    # ------------------------------------------------------------------
    # CSR snapshots (the array kernel's input)
    # ------------------------------------------------------------------
    def csr_snapshot(self) -> Optional[CSRGraph]:
        """The cached CSR snapshot, or ``None`` when absent or stale.

        The cache is keyed by :meth:`fingerprint`: structural mutations drop
        the snapshot outright (index maps and spans change), while
        :meth:`update_edge_weight` patches it in place and re-keys it, so a
        weight-only update stream never pays a recompile.  The shortest path
        entry points in :mod:`repro.network.algorithms.dijkstra` dispatch to
        the array kernel exactly when this returns a snapshot.
        """
        if self._csr is not None and self._csr_fingerprint == self.fingerprint():
            return self._csr
        return None

    def ensure_csr(self) -> CSRGraph:
        """The fresh CSR snapshot, compiling one if absent or stale."""
        snapshot = self.csr_snapshot()
        if snapshot is None:
            snapshot = CSRGraph.from_network(self)
            self._csr = snapshot
            self._csr_fingerprint = self.fingerprint()
            self._csr_builds += 1
        return snapshot

    def adopt_csr(self, snapshot: CSRGraph) -> CSRGraph:
        """Install an externally compiled CSR snapshot for the current state.

        Serving workers map one shared-memory snapshot per published cycle
        (:meth:`CSRGraph.from_buffers`) instead of each compiling their own;
        adopting it keys the cache to the network's current fingerprint so
        :meth:`csr_snapshot` serves the shared arrays to every shortest path
        run.  Only shape is sanity-checked here -- the caller vouches that
        the snapshot was compiled from a network with this fingerprint (the
        serving layer pins both to the same artifact publication).
        """
        if (
            snapshot.num_nodes != self.num_nodes
            or snapshot.num_edges != self.num_edges
        ):
            raise ValueError(
                f"snapshot shape ({snapshot.num_nodes} nodes, "
                f"{snapshot.num_edges} edges) does not match network "
                f"({self.num_nodes} nodes, {self.num_edges} edges)"
            )
        self._csr = snapshot
        self._csr_fingerprint = self.fingerprint()
        return snapshot

    def csr_stats(self) -> Dict[str, int]:
        """Snapshot cache counters (surfaced by ``AirSystem.cache_info``)."""
        return {
            "builds": self._csr_builds,
            "patches": self._csr_patches,
            "fresh": int(self.csr_snapshot() is not None),
        }

    # ------------------------------------------------------------------
    # Representation
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RoadNetwork(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )

    def validate(self) -> None:
        """Raise ``ValueError`` if internal invariants are violated.

        Checked invariants: adjacency endpoints exist, weights are
        non-negative, and the forward/reverse adjacency lists agree.
        """
        forward_count = 0
        for source, neighbors in self._adjacency.items():
            if source not in self._nodes:
                raise ValueError(f"adjacency references unknown node {source}")
            for target, weight in neighbors:
                forward_count += 1
                if target not in self._nodes:
                    raise ValueError(f"edge {source}->{target} targets unknown node")
                if weight < 0:
                    raise ValueError(f"edge {source}->{target} has negative weight")
        reverse_count = sum(len(v) for v in self._reverse_adjacency.values())
        if forward_count != reverse_count or forward_count != self._num_edges:
            raise ValueError(
                "forward/reverse adjacency disagree: "
                f"{forward_count} vs {reverse_count} vs {self._num_edges}"
            )


def build_network(
    nodes: Sequence[Tuple[int, float, float]],
    edges: Sequence[Tuple[int, int, float]],
    name: str = "road-network",
) -> RoadNetwork:
    """Convenience constructor from plain node and edge tuples."""
    network = RoadNetwork(name=name)
    for node_id, x, y in nodes:
        network.add_node(node_id, x, y)
    for source, target, weight in edges:
        network.add_edge(source, target, weight)
    network.clear_delta()
    return network
