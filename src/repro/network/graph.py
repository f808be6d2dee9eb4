"""Directed, weighted, spatially embedded road-network graph.

The paper (Section 2.1) models a road network as a directed weighted graph
``G = (V, E)`` where every node carries an identifier and Euclidean
coordinates ``<id, x, y>`` and every edge is a triplet ``<id_i, id_j, w_ij>``.
:class:`RoadNetwork` is that model.

The network's one stored form is a compiled :class:`CSRGraph` (forward and
reverse spans, index order = ascending id order) plus ``x``/``y`` coordinate
arrays in index order, and -- only when ids were not added in ascending
order -- the node insertion order.  Every read is served from those arrays.
Structural edits (``add_node``/``add_edge``/``remove_edge``) are staged in a
small builder that holds the touched nodes' spans as lists, and the next
edge read folds them in with one compile; reads that only need nodes
(``has_node``, ``coordinates``, ``node_ids``, ...) never compile, so
builders that interleave them with ``add_edge`` stay linear.  Weight
updates patch the arrays in place.  Every weight, added or updated, obeys
the one weight rule ``0 < w < inf`` (:mod:`repro.network.weights`).
"""

from __future__ import annotations

import hashlib
import operator
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.network.csr import CSRGraph, ImmutableSnapshotError
from repro.network.delta import InvalidUpdateError, NetworkDelta, WeightChange
from repro.network.weights import RULE, check_weights, is_valid_weight, update_error

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


class _AdjacencyView(Mapping):
    """``{node_id: [(neighbor_id, weight), ...]}`` over one direction's spans."""

    __slots__ = ("_network", "_reverse")

    def __init__(self, network: "RoadNetwork", reverse: bool) -> None:
        self._network = network
        self._reverse = reverse

    def __getitem__(self, node_id: int) -> List[Tuple[int, float]]:
        if self._reverse:
            return self._network.in_neighbors(node_id)
        return self._network.neighbors(node_id)

    def __iter__(self):
        return iter(self._network.node_ids())

    def __len__(self) -> int:
        return self._network.num_nodes


class _Staged:
    """Structural edits not yet folded into the CSR arrays.

    ``nodes`` holds the coordinates of ids new since the last compile, in
    insertion order; ``out``/``inc`` hold the complete forward and reverse
    span, as ``(neighbor_id, weight)`` lists, of every node an edit touched.
    """

    __slots__ = ("nodes", "out", "inc")

    def __init__(self) -> None:
        self.nodes: Dict[int, Tuple[float, float]] = {}
        self.out: Dict[int, List[Tuple[int, float]]] = {}
        self.inc: Dict[int, List[Tuple[int, float]]] = {}


def _span(csr: CSRGraph, node_id: int, reverse: bool) -> List[Tuple[int, float]]:
    """``node_id``'s forward (or reverse) span as ``(neighbor_id, weight)``."""
    if reverse:
        offsets, targets, weights = csr.rev_offsets, csr.rev_targets, csr.rev_weights
    else:
        offsets, targets, weights = csr.fwd_offsets, csr.fwd_targets, csr.fwd_weights
    index = csr.index_of[node_id]
    ids = csr.ids
    return [
        (ids[targets[p]], weights[p]) for p in range(offsets[index], offsets[index + 1])
    ]


class RoadNetwork:
    """A directed weighted graph with node coordinates, stored as CSR arrays.

    Forward and reverse spans are both kept, so forward and backward
    searches (needed by the pre-computation indexes) are equally cheap.

    Parameters
    ----------
    name:
        Optional human-readable name (e.g. ``"germany"``) used by the
        experiment harness when reporting results.
    """

    def __init__(self, name: str = "road-network") -> None:
        self.name = name
        self._csr = CSRGraph(
            [], array("l", [0]), array("l"), array("d"),
            array("l", [0]), array("l"), array("d"), name=f"{name}-csr",
        )
        #: Coordinates in snapshot index order: flat float64 buffers
        #: (``array('d')``, or views mapped from a shared segment).
        self._x = array("d")
        self._y = array("d")
        #: Node insertion order, or ``None`` while it is ascending id order.
        self._order: Optional[List[int]] = None
        self._staged: Optional[_Staged] = None
        self._num_edges = 0
        #: Networks opened over a table or a shared segment refuse mutation.
        self._read_only = False
        self._fingerprint_cache: Optional[str] = None
        #: 128-bit multiset sum behind ``fingerprint()``; ``None`` until the
        #: first full computation, then maintained in O(1) per mutation.
        self._fingerprint_sum: Optional[int] = None
        # Pending-change tracking (see pending_delta()): weight changes are
        # coalesced per physical edge, listed under their (source, target)
        # pair; structural mutations set a flag that forces consumers onto
        # the full-rebuild path.
        self._pending_changes: Dict[Tuple[int, int], List[WeightChange]] = {}
        self._dirty_nodes: set = set()
        self._structurally_dirty = False
        self._builds = 0
        self._patches = 0

    @classmethod
    def from_arrays(
        cls,
        csr: CSRGraph,
        x,
        y,
        name: str,
        order: Optional[Sequence[int]] = None,
        fingerprint: Optional[str] = None,
    ) -> "RoadNetwork":
        """A read-only network over an existing snapshot and coordinates.

        ``x``/``y`` are flat float64 buffers (``array('d')`` or ``memoryview``
        casts) in ``csr`` index order and ``order`` the node insertion order
        when it is not ascending.  Nothing is copied: a serving worker wires
        this over the arrays it maps from a shared segment.  The
        fingerprint, when not given, is re-hashed from the arrays on first
        use.  Mutations raise
        :class:`~repro.network.csr.ImmutableSnapshotError`; refresh by
        re-publishing, or mutate a :meth:`copy`.
        """
        if len(x) != csr.num_nodes or len(y) != csr.num_nodes:
            raise ValueError(
                f"coordinate arrays ({len(x)}, {len(y)}) do not match "
                f"snapshot node count {csr.num_nodes}"
            )
        network = cls(name=name)
        network._csr = csr
        network._x = x
        network._y = y
        network._order = order
        network._num_edges = csr.num_edges
        network._read_only = True
        network._builds = 1
        if fingerprint is not None:
            network._fingerprint_cache = fingerprint
            network._fingerprint_sum = int(fingerprint, 16)
        return network

    @classmethod
    def from_table(cls, table, name: Optional[str] = None) -> "RoadNetwork":
        """Open a columnar edge table as a read-only network.

        The snapshot comes straight from :meth:`CSRGraph.from_columnar`, no
        per-node objects are built, and the manifest fingerprint keys the
        network (and every engine/store cache downstream) without an
        O(V + E) re-hash.
        """
        csr = CSRGraph.from_columnar(table)
        sorted_ids = np.asarray(csr.ids, dtype=np.int64)
        x = array("d", [0.0]) * csr.num_nodes
        y = array("d", [0.0]) * csr.num_nodes
        x_view = np.frombuffer(x, dtype=np.float64)
        y_view = np.frombuffer(y, dtype=np.float64)
        for ids, xs, ys in table.iter_node_chunks():
            # Chunks arrive in arbitrary id order; scatter into index order.
            positions = np.searchsorted(sorted_ids, ids)
            x_view[positions] = xs
            y_view[positions] = ys
        return cls.from_arrays(
            csr, x, y, name=name or table.name, fingerprint=table.fingerprint
        )

    # ------------------------------------------------------------------
    # Fingerprint maintenance
    # ------------------------------------------------------------------
    @staticmethod
    def _node_element(node_id: int, x: float, y: float) -> str:
        return f"n{node_id}:{x!r}:{y!r};"

    @staticmethod
    def _edge_element(source: int, target: int, weight: float) -> str:
        return f"e{source}>{target}:{weight!r};"

    def _fingerprint_shift(self, part: str, sign: int = 1) -> None:
        self._fingerprint_cache = None
        if self._fingerprint_sum is not None:
            self._fingerprint_sum = (
                self._fingerprint_sum + sign * _element_hash(part)
            ) % _FINGERPRINT_MOD

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self._read_only:
            raise ImmutableSnapshotError(
                "serving snapshots are immutable; refresh via re-publish "
                f"(network {self.name!r} was opened over a read-only "
                "snapshot; mutate a copy() instead)"
            )

    def _stage(self) -> _Staged:
        if self._staged is None:
            self._staged = _Staged()
        return self._staged

    def _staged_span(self, node_id: int, reverse: bool) -> List[Tuple[int, float]]:
        """The mutable staged span of ``node_id``, seeded from the arrays."""
        staged = self._stage()
        spans = staged.inc if reverse else staged.out
        span = spans.get(node_id)
        if span is None:
            span = spans[node_id] = self._current_span(node_id, reverse)
        return span

    def _current_span(self, node_id: int, reverse: bool) -> List[Tuple[int, float]]:
        """``node_id``'s span as of the last edit, without compiling."""
        staged = self._staged
        if staged is not None:
            span = (staged.inc if reverse else staged.out).get(node_id)
            if span is not None:
                return span
        if node_id not in self._csr.index_of:
            return []
        return _span(self._csr, node_id, reverse)

    def add_node(self, node_id: int, x: float, y: float) -> Node:
        """Add (or replace) a node and return it."""
        self._check_mutable()
        node = Node(node_id, float(x), float(y))
        if self.has_node(node_id):
            previous = self.coordinates(node_id)
            self._fingerprint_shift(self._node_element(node_id, *previous), -1)
            index = self._csr.index_of.get(node_id)
            if index is None:
                self._staged.nodes[node_id] = (node.x, node.y)
            else:
                self._x[index] = node.x
                self._y[index] = node.y
        else:
            if self._order is None and self.num_nodes and node_id < self._last_id():
                self._order = self.node_ids()
            if self._order is not None:
                self._order.append(node_id)
            self._stage().nodes[node_id] = (node.x, node.y)
        self._fingerprint_shift(self._node_element(node_id, node.x, node.y))
        self._structurally_dirty = True
        self._dirty_nodes.add(node_id)
        return node

    def _last_id(self) -> int:
        """The most recently added id (the largest while order is ascending)."""
        staged = self._staged
        if staged is not None and staged.nodes:
            return next(reversed(staged.nodes))
        return self._csr.ids[-1]

    def add_edge(self, source: int, target: int, weight: float) -> Edge:
        """Add a directed edge; both endpoints must already exist.

        Raises ``ValueError`` for a weight that is not positive and finite.
        """
        self._check_mutable()
        if not self.has_node(source):
            raise KeyError(f"unknown source node {source}")
        if not self.has_node(target):
            raise KeyError(f"unknown target node {target}")
        weight = float(weight)
        if not is_valid_weight(weight):
            raise ValueError(f"edge weight {RULE}, got {weight!r}")
        self._staged_span(source, False).append((target, weight))
        self._staged_span(target, True).append((source, weight))
        self._num_edges += 1
        self._fingerprint_shift(self._edge_element(source, target, weight))
        self._structurally_dirty = True
        self._dirty_nodes.update((source, target))
        return Edge(source, target, weight)

    def add_bidirectional_edge(self, a: int, b: int, weight: float) -> None:
        """Add the pair of directed edges ``a -> b`` and ``b -> a``."""
        self.add_edge(a, b, weight)
        self.add_edge(b, a, weight)

    def remove_edge(self, source: int, target: int) -> Edge:
        """Remove one directed edge ``source -> target`` and return it.

        With parallel edges, the minimum-weight one (the one shortest paths
        use) is removed: its first occurrence in the source's forward span
        and in the target's reverse span.  Raises ``KeyError`` if no such
        edge exists.
        """
        self._check_mutable()
        weights = [w for t, w in self._current_span(source, False) if t == target]
        if not weights:
            raise KeyError(f"no edge {source} -> {target}")
        weight = min(weights)
        self._staged_span(source, False).remove((target, weight))
        self._staged_span(target, True).remove((source, weight))
        self._num_edges -= 1
        self._fingerprint_shift(self._edge_element(source, target, weight), -1)
        self._structurally_dirty = True
        self._dirty_nodes.update((source, target))
        return Edge(source, target, weight)

    # ------------------------------------------------------------------
    # Dynamic weight updates
    # ------------------------------------------------------------------
    def update_edge_weight(self, source: int, target: int, weight: float) -> WeightChange:
        """Change the weight of the existing edge ``source -> target``.

        With parallel edges, the minimum-weight one (the one shortest paths
        use) is updated -- consistent with :meth:`edge_weight` and
        :meth:`remove_edge`.  Raises ``KeyError`` if the edge does not exist
        and ``ValueError`` for a weight that is not positive and finite or
        breaks the label bound.

        The CSR entry is patched in place (no recompile), and the change is
        recorded in the network's pending delta (see :meth:`pending_delta`),
        coalesced per physical edge, so the engine's incremental refresh
        knows exactly which edges moved and by how much.  A patch folds into
        the pending change of its ``(source, target)`` pair whose new weight
        it overwrites -- with parallel edges a later update may patch another
        edge of the pair -- and otherwise opens a change of its own.
        """
        new_weight = float(weight)
        if not is_valid_weight(new_weight):
            raise ValueError(f"updated edge weight {RULE}, got {weight!r}")
        self._check_mutable()
        old_weight = self.edge_weight(source, target)
        change = WeightChange(source, target, old_weight, new_weight)
        if new_weight == old_weight:
            return change
        self._csr.patch_weight(source, target, old_weight, new_weight)
        self._patches += 1
        self._fingerprint_shift(self._edge_element(source, target, old_weight), -1)
        self._fingerprint_shift(self._edge_element(source, target, new_weight))
        self._dirty_nodes.update((source, target))
        pending = self._pending_changes.setdefault((source, target), [])
        for position, earlier in enumerate(pending):
            if earlier.new_weight == old_weight:
                if earlier.old_weight == new_weight:
                    # The edge is back where the last refresh saw it.
                    del pending[position]
                else:
                    pending[position] = WeightChange(
                        source, target, earlier.old_weight, new_weight
                    )
                break
        else:
            pending.append(change)
        if not pending:
            del self._pending_changes[(source, target)]
        return change

    def apply_updates(self, updates: Iterable) -> List[WeightChange]:
        """Apply a batch of edge-weight updates and return the changes.

        Each update may be an :class:`~repro.network.delta.EdgeUpdate`, any
        object with ``source``/``target``/``weight`` attributes, or a plain
        ``(source, target, weight)`` tuple.

        The batch is all or nothing: every update is checked first -- three
        fields, integer node ids, an existing edge, a positive finite weight
        -- then the label bound over the whole batch, each weight folded
        into the extremes before the next
        (:func:`~repro.network.weights.update_error`); the first that fails
        raises :class:`InvalidUpdateError` with its index before anything
        is mutated.  The checked updates are then
        applied in order through :meth:`update_edge_weight` (with its
        pending-delta coalescing).
        """
        batch = [
            self._checked_update(index, update)
            for index, update in enumerate(updates)
        ]
        if batch:
            weights = np.frombuffer(self.ensure_csr().fwd_weights, dtype=np.float64)
            low, high = weights.min(), weights.max()
            for index, (_, _, weight) in enumerate(batch):
                error = update_error(weight, self.num_nodes, low, high)
                if error is not None:
                    raise InvalidUpdateError(index, error)
                low, high = min(low, weight), max(high, weight)
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
        if not is_valid_weight(weight):
            raise InvalidUpdateError(index, f"edge weight {RULE}, got {weight!r}")
        return source, target, weight

    def pending_delta(self) -> NetworkDelta:
        """A snapshot of everything changed since :meth:`clear_delta`.

        The engine's :meth:`~repro.engine.system.AirSystem.refresh` reads
        this to route cached schemes through their incremental rebuilds
        (weight-only deltas) or a full rebuild (structural deltas).
        """
        return NetworkDelta(
            changes=tuple(
                change for pair in self._pending_changes.values() for change in pair
            ),
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
    # Node reads (never compile)
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network."""
        staged = len(self._staged.nodes) if self._staged is not None else 0
        return self._csr.num_nodes + staged

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the network."""
        return self._num_edges

    def __contains__(self, node_id: int) -> bool:
        return self.has_node(node_id)

    def __len__(self) -> int:
        return self.num_nodes

    def has_node(self, node_id: int) -> bool:
        """Return ``True`` if ``node_id`` is a node of the network."""
        if node_id in self._csr.index_of:
            return True
        return self._staged is not None and node_id in self._staged.nodes

    def coordinates(self, node_id: int) -> Tuple[float, float]:
        """Return the ``(x, y)`` coordinates of ``node_id``."""
        index = self._csr.index_of.get(node_id)
        if index is None:
            if self._staged is None or node_id not in self._staged.nodes:
                raise KeyError(node_id)
            return self._staged.nodes[node_id]
        return (self._x[index], self._y[index])

    def node(self, node_id: int) -> Node:
        """Return the :class:`Node` for ``node_id``."""
        return Node(node_id, *self.coordinates(node_id))

    def node_ids(self) -> List[int]:
        """Return all node identifiers (insertion order)."""
        if self._order is not None:
            return list(self._order)
        ids = list(self._csr.ids)
        if self._staged is not None:
            ids.extend(self._staged.nodes)
        return ids

    def nodes(self) -> Iterator[Node]:
        """Iterate over all :class:`Node` objects (insertion order)."""
        for node_id in self.node_ids():
            yield self.node(node_id)

    def euclidean_distance(self, a: int, b: int) -> float:
        """Euclidean distance between the coordinates of nodes ``a`` and ``b``."""
        ax, ay = self.coordinates(a)
        bx, by = self.coordinates(b)
        return ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5

    # ------------------------------------------------------------------
    # Edge reads (fold staged edits in first)
    # ------------------------------------------------------------------
    def ensure_csr(self) -> CSRGraph:
        """The network's CSR snapshot, folding staged edits in first.

        This is the one accessor every search runs on.  Weight updates patch
        the returned snapshot in place; a structural edit makes the next
        call compile a new one.
        """
        if self._staged is not None:
            self._compile()
        return self._csr

    def _compile(self) -> None:
        ids = sorted(self.node_ids())
        index_of = {node_id: index for index, node_id in enumerate(ids)}
        coordinates = [self.coordinates(node_id) for node_id in ids]
        arrays = []
        for reverse in (False, True):
            offsets, targets, weights = array("l", [0]), array("l"), array("d")
            for node_id in ids:
                for neighbor, weight in self._current_span(node_id, reverse):
                    targets.append(index_of[neighbor])
                    weights.append(weight)
                offsets.append(len(targets))
            arrays += [offsets, targets, weights]
        self._csr = CSRGraph(ids, *arrays, name=f"{self.name}-csr")
        self._x = array("d", [x for x, _ in coordinates])
        self._y = array("d", [y for _, y in coordinates])
        self._staged = None
        self._builds += 1

    def _parallel_weights(self, source: int, target: int) -> List[float]:
        csr = self.ensure_csr()
        u = csr.index_of.get(source)
        v = csr.index_of.get(target)
        if u is None or v is None:
            return []
        targets, weights = csr.fwd_targets, csr.fwd_weights
        return [
            weights[p]
            for p in range(csr.fwd_offsets[u], csr.fwd_offsets[u + 1])
            if targets[p] == v
        ]

    def has_edge(self, source: int, target: int) -> bool:
        """Return ``True`` if the directed edge ``source -> target`` exists."""
        return bool(self._parallel_weights(source, target))

    def edge_weight(self, source: int, target: int) -> float:
        """Return the weight of ``source -> target``.

        If parallel edges exist, the minimum weight is returned (the one any
        shortest path would use).
        """
        weights = self._parallel_weights(source, target)
        if not weights:
            raise KeyError(f"no edge {source} -> {target}")
        return min(weights)

    def edge_tuples(self) -> Iterator[Tuple[int, int, float]]:
        """``(source, target, weight)`` of every edge, in :meth:`edges` order.

        The cheap form of :meth:`edges` for loops that read every edge: no
        :class:`Edge` object per edge.
        """
        csr = self.ensure_csr()
        ids = np.asarray(csr.ids, dtype=np.int64)
        offsets = np.frombuffer(csr.fwd_offsets, dtype=np.int64)
        rows = (
            np.arange(len(ids))
            if self._order is None
            else np.searchsorted(ids, np.asarray(self._order, dtype=np.int64))
        )
        # Edge positions row by row: each row's span, rows in insertion order.
        degree = np.diff(offsets)[rows]
        shift = np.repeat(offsets[rows] - (np.cumsum(degree) - degree), degree)
        positions = shift + np.arange(len(shift), dtype=np.int64)
        return zip(
            np.repeat(ids[rows], degree).tolist(),
            ids[np.frombuffer(csr.fwd_targets, dtype=np.int64)[positions]].tolist(),
            np.frombuffer(csr.fwd_weights, dtype=np.float64)[positions].tolist(),
        )

    def edges(self) -> Iterator[Edge]:
        """Iterate over all directed :class:`Edge` objects.

        Sources come in node insertion order, and each source's edges in
        the order they were added.
        """
        for source, target, weight in self.edge_tuples():
            yield Edge(source, target, weight)

    def neighbors(self, node_id: int) -> List[Tuple[int, float]]:
        """Return the out-neighbors of ``node_id`` as ``(target, weight)``."""
        return _span(self.ensure_csr(), node_id, False)

    def in_neighbors(self, node_id: int) -> List[Tuple[int, float]]:
        """Return the in-neighbors of ``node_id`` as ``(source, weight)``."""
        return _span(self.ensure_csr(), node_id, True)

    def out_degree(self, node_id: int) -> int:
        """Number of outgoing edges of ``node_id``."""
        csr = self.ensure_csr()
        index = csr.index_of[node_id]
        return csr.fwd_offsets[index + 1] - csr.fwd_offsets[index]

    def in_degree(self, node_id: int) -> int:
        """Number of incoming edges of ``node_id``."""
        csr = self.ensure_csr()
        index = csr.index_of[node_id]
        return csr.rev_offsets[index + 1] - csr.rev_offsets[index]

    def adjacency(self) -> Mapping:
        """Read-only ``{node: [(target, weight), ...]}`` view of the spans."""
        return _AdjacencyView(self, reverse=False)

    def reverse_adjacency(self) -> Mapping:
        """Read-only ``{node: [(source, weight), ...]}`` view of the spans."""
        return _AdjacencyView(self, reverse=True)

    def node_arrays(self) -> Tuple[Sequence[float], Sequence[float], Optional[Sequence[int]]]:
        """``(x, y, order)``: coordinates in snapshot index order, and the
        node insertion order (``None`` when it is ascending id order)."""
        self.ensure_csr()
        return self._x, self._y, self._order

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)`` over all nodes."""
        self.ensure_csr()
        if not len(self._x):
            raise ValueError("bounding box of an empty network is undefined")
        x = np.frombuffer(self._x, dtype=np.float64)
        y = np.frombuffer(self._y, dtype=np.float64)
        return (float(x.min()), float(y.min()), float(x.max()), float(y.max()))

    def total_weight(self) -> float:
        """Sum of all edge weights (used for sanity statistics)."""
        return sum(weight for _, _, weight in self.edge_tuples())

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
            sub.add_node(node_id, *self.coordinates(node_id))
        for node_id in keep:
            for target, weight in self.neighbors(node_id):
                if target in keep:
                    sub.add_edge(node_id, target, weight)
        sub.clear_delta()  # a finished artifact, not a pile of pending updates
        return sub

    def reversed(self) -> "RoadNetwork":
        """Return a copy of the network with every edge direction flipped."""
        rev = RoadNetwork(name=f"{self.name}-reversed")
        for node in self.nodes():
            rev.add_node(node.node_id, node.x, node.y)
        for edge in self.edges():
            rev.add_edge(edge.target, edge.source, edge.weight)
        rev.clear_delta()
        return rev

    def copy(self) -> "RoadNetwork":
        """Return a mutable deep copy of the network."""
        dup = RoadNetwork(name=self.name)
        for node in self.nodes():
            dup.add_node(node.node_id, node.x, node.y)
        for edge in self.edges():
            dup.add_edge(edge.source, edge.target, edge.weight)
        dup.clear_delta()
        return dup

    # ------------------------------------------------------------------
    # Connectivity helpers
    # ------------------------------------------------------------------
    def weakly_connected_components(self) -> List[List[int]]:
        """Return the weakly connected components (lists of node ids)."""
        seen = set()
        components: List[List[int]] = []
        for start in self.node_ids():
            if start in seen:
                continue
            stack = [start]
            seen.add(start)
            component = []
            while stack:
                current = stack.pop()
                component.append(current)
                for neighbor, _ in self.neighbors(current) + self.in_neighbors(current):
                    if neighbor not in seen:
                        seen.add(neighbor)
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
        if not self.num_nodes:
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
        lazily on first use; repeated calls on an unchanged network cost an
        attribute read.
        """
        if self._fingerprint_cache is not None:
            return self._fingerprint_cache
        if self._fingerprint_sum is None:
            csr = self.ensure_csr()
            total = sum(
                _element_hash(self._node_element(*row))
                for row in zip(csr.ids, self._x, self._y)
            )
            total += sum(
                _element_hash(self._edge_element(*row)) for row in self.edge_tuples()
            )
            self._fingerprint_sum = total % _FINGERPRINT_MOD
        self._fingerprint_cache = f"{self._fingerprint_sum:032x}"
        return self._fingerprint_cache

    def fingerprint_before(self, changes: Iterable[WeightChange]) -> str:
        """The fingerprint this network had before the weight ``changes``
        (one per physical edge, as :meth:`pending_delta` holds them): each
        edge's new-weight element taken out of the multiset sum and its
        old-weight element put back, with no re-hash of the rest."""
        total = int(self.fingerprint(), 16)
        for change in changes:
            if not change.is_noop:
                edge = (change.source, change.target)
                total += _element_hash(self._edge_element(*edge, change.old_weight))
                total -= _element_hash(self._edge_element(*edge, change.new_weight))
        return f"{total % _FINGERPRINT_MOD:032x}"

    def csr_stats(self) -> Dict[str, int]:
        """Snapshot compiles and in-place patches (see ``AirSystem.cache_info``)."""
        return {"builds": self._builds, "patches": self._patches}

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

        Checked invariants: both directions hold the network's edge count
        in spans that cover their arrays, targets are valid node indexes,
        and every weight is positive and finite and keeps the label bound.
        """
        csr = self.ensure_csr()
        for offsets, targets, weights in (
            (csr.fwd_offsets, csr.fwd_targets, csr.fwd_weights),
            (csr.rev_offsets, csr.rev_targets, csr.rev_weights),
        ):
            if not len(targets) == offsets[-1] == self._num_edges:
                raise ValueError(
                    f"spans end at {offsets[-1]} over {len(targets)} edges, "
                    f"network counts {self._num_edges}"
                )
            if any(not 0 <= t < csr.num_nodes for t in targets):
                raise ValueError("an edge targets an unknown node")
            check_weights(weights, num_nodes=csr.num_nodes)


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
