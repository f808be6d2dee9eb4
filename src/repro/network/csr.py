"""Frozen CSR (compressed sparse row) snapshots of a road network.

:class:`CSRGraph` is the one stored form of a
:class:`~repro.network.graph.RoadNetwork`: contiguous int-indexed arrays --
``array('l')`` offsets/targets and ``array('d')`` weights, forward *and*
reverse -- plus id <-> index maps.  The array kernel
(:mod:`repro.network.algorithms.kernel`) runs its shortest path searches
over this layout.

Two invariants make kernel results bit-identical to a textbook Dijkstra
over the network's adjacency:

* **Index order is node-id order.**  Node index ``i`` is the rank of its id
  among all sorted ids, so a heap ordered by ``(distance, index)`` pops in
  exactly the same sequence as a ``(distance, node_id)`` heap --
  equal-distance ties settle identically.
* **Edge order is insertion order.**  Each node's span lists its edges in
  the order they were added, so relaxations (and therefore predecessor
  assignment on ties) replay in the same sequence.

A serving worker maps the flat arrays from a shared segment
(:meth:`CSRGraph.from_buffers`) instead of owning them.  Every snapshot,
owned or mapped, derives the same lazy per-process tuple adjacency
(:attr:`CSRGraph.fwd_adj`) for the kernel's faithful loop.

Every edge weight obeys the network's one weight rule, ``0 < w < inf``
and the label bound (:mod:`repro.network.weights`): the constructor
checks it, whichever way the arrays came -- compiled, mapped or read from
a columnar table -- and so does every in-place weight patch, raising
``ValueError`` otherwise, so the kernel has one regime.

Snapshots have a frozen topology: the owning network **patches weights in
place** on dynamic weight updates (:meth:`patch_weight`) and compiles a new
snapshot after structural edits (adding nodes or adding/removing edges
changes the index maps and spans).
"""

from __future__ import annotations

import operator as _operator
from array import array
from collections.abc import Mapping as _MappingABC
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.network.weights import check_weights, update_error

__all__ = ["CSRGraph", "ImmutableSnapshotError"]


class ImmutableSnapshotError(TypeError):
    """Mutation attempted on a read-only (shared or columnar) snapshot.

    Raised instead of mutating arrays that other processes map
    (:meth:`CSRGraph.from_buffers` serving segments) or a network opened
    read-only (:meth:`~repro.network.graph.RoadNetwork.from_table`).
    Subclasses ``TypeError`` so callers that treated the old bare
    ``TypeError`` as "this snapshot cannot be patched" keep working.
    """


class _RangeIndex(_MappingABC):
    """Dict-free ``id -> index`` map for contiguous id ranges.

    Continental imports (DIMACS ids are dense ``1..n``) would otherwise pay
    ~80 bytes/node for the ``index_of`` dict; this arithmetic view answers
    the same ``[]``/``in``/``get`` queries from two integers.
    """

    __slots__ = ("_start", "_length")

    def __init__(self, start: int, length: int) -> None:
        self._start = start
        self._length = length

    def __getitem__(self, node_id: int) -> int:
        try:
            index = _operator.index(node_id) - self._start
        except TypeError:
            raise KeyError(node_id) from None
        if 0 <= index < self._length:
            return index
        raise KeyError(node_id)

    def get(self, node_id, default=None):
        try:
            index = _operator.index(node_id) - self._start
        except TypeError:
            return default
        if 0 <= index < self._length:
            return index
        return default

    def __contains__(self, node_id) -> bool:
        return self.get(node_id) is not None

    def __iter__(self):
        return iter(range(self._start, self._start + self._length))

    def __len__(self) -> int:
        return self._length


def _index_map(ids: Sequence[int]):
    """``id -> index`` map over index-ordered (ascending, unique) ids."""
    n = len(ids)
    # Ids are sorted and unique by the snapshot contract, so matching ends
    # imply the whole range is contiguous.
    if n and isinstance(ids[0], int) and ids[-1] - ids[0] == n - 1:
        return _RangeIndex(ids[0], n)
    return {nid: i for i, nid in enumerate(ids)}


class CSRGraph:
    """An immutable-topology CSR view of a directed weighted graph.

    A :class:`~repro.network.graph.RoadNetwork` compiles its own
    (:meth:`~repro.network.graph.RoadNetwork.ensure_csr`); a serving worker
    maps one (:meth:`from_buffers`) and an ingest compiles one from a table
    (:meth:`from_columnar`).  The constructor wires pre-compiled arrays
    together and raises ``ValueError`` when an edge weight breaks the
    weight rule, unless :meth:`derived` from a ``base`` snapshot.
    """

    def __init__(
        self,
        ids: List[int],
        fwd_offsets: array,
        fwd_targets: array,
        fwd_weights: array,
        rev_offsets: array,
        rev_targets: array,
        rev_weights: array,
        name: str = "csr",
        base: Optional["CSRGraph"] = None,
    ) -> None:
        self.name = name
        #: Node ids in index order (ascending -- see module docstring).
        self.ids = ids
        #: node id -> node index (a dict, or an arithmetic
        #: :class:`_RangeIndex` when the ids are a contiguous range).
        self.index_of = _index_map(ids) if base is None else base.index_of
        self.fwd_offsets = fwd_offsets
        self.fwd_targets = fwd_targets
        self.fwd_weights = fwd_weights
        self.rev_offsets = rev_offsets
        self.rev_targets = rev_targets
        self.rev_weights = rev_weights
        #: ``True`` when the flat arrays live in externally owned buffers
        #: (a :class:`~repro.serving.shm.SharedArtifactSegment` mapping).
        #: Buffer-backed snapshots are strictly read-only: an in-place weight
        #: patch would silently mutate every process mapping the segment.
        self.buffer_backed = False
        self._fwd_adj: Optional[List[Tuple[Tuple[int, float], ...]]] = None
        self._rev_adj: Optional[List[Tuple[Tuple[int, float], ...]]] = None
        if base is None:
            # The reverse weights are the same multiset, so one scan covers both.
            check_weights(fwd_weights, num_nodes=len(ids))
        #: Kernel cache slot (numpy/scipy views built lazily by the
        #: kernel; ``None`` until first use, shared by reference so in-place
        #: weight patches propagate without rebuilding).
        self._accel = None

    @classmethod
    def derived(cls, base: "CSRGraph", tails, heads, weights, name: str) -> "CSRGraph":
        """A graph over ``base``'s nodes and index map with the edges
        ``tails[i] -> heads[i]`` weighing ``weights[i]`` (numpy arrays), in
        the order given; unchecked, as ``base``'s check covers the graphs
        HiTi derives (:mod:`repro.network.weights`)."""
        n = base.num_nodes

        def spans(group, other):
            order = np.argsort(group, kind="stable")
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(group, minlength=n), out=offsets[1:])
            return [memoryview(values) for values in (offsets, other[order], weights[order])]

        return cls(base.ids, *spans(tails, heads), *spans(heads, tails), name=name, base=base)

    # ------------------------------------------------------------------
    # Adjacency views
    # ------------------------------------------------------------------
    @property
    def fwd_adj(self):
        """Per-index forward adjacency (tuples of ``(neighbor_index, weight)``).

        This is what the kernel's faithful inner loop iterates -- one list
        index instead of one dict hash per node.  Materialized lazily, once
        per process, from the flat arrays, whoever owns them: a snapshot
        over a shared segment (:meth:`from_buffers`) builds the same list
        of tuples as one compiled locally, so every snapshot runs the same
        loop.  The tuples are private to the process that builds them and
        hold no reference into the arrays.  At 4,907 nodes they cost
        1.24 MiB forward and 1.35 MiB more for :attr:`rev_adj`, against
        0.38 MiB for the six flat arrays.
        """
        if self._fwd_adj is None:
            self._fwd_adj = self._zip_adjacency(
                self.fwd_offsets, self.fwd_targets, self.fwd_weights
            )
        return self._fwd_adj

    @property
    def rev_adj(self):
        """Per-index reverse adjacency (see :attr:`fwd_adj`)."""
        if self._rev_adj is None:
            self._rev_adj = self._zip_adjacency(
                self.rev_offsets, self.rev_targets, self.rev_weights
            )
        return self._rev_adj

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def _zip_adjacency(offsets, targets, weights) -> List[Tuple[Tuple[int, float], ...]]:
        # Box every value once, then slice lists: 3.9 ms instead of 6.8 ms
        # per direction at 4,907 nodes (2-vCPU x86-64 VM, Python 3.11).
        bounds = offsets.tolist()
        targets = targets.tolist()
        weights = weights.tolist()
        return [
            tuple(zip(targets[start:end], weights[start:end]))
            for start, end in zip(bounds, bounds[1:])
        ]

    @classmethod
    def from_buffers(
        cls,
        ids: Sequence[int],
        fwd_offsets,
        fwd_targets,
        fwd_weights,
        rev_offsets,
        rev_targets,
        rev_weights,
        name: str = "csr",
    ) -> "CSRGraph":
        """Wire a snapshot directly over externally owned array buffers.

        The six flat arrays may be any buffer-protocol objects with int64
        offsets/targets and float64 weights -- in practice ``memoryview``
        casts over one :class:`multiprocessing.shared_memory.SharedMemory`
        segment, so N worker processes share a single physical copy of the
        flat arrays.  Only the id column is copied, into a per-process list:
        the kernel's results and A* map every reached index back to its id,
        and indexing a list costs half what indexing a mapped int64 view
        does.  The id -> index map is the arithmetic :class:`_RangeIndex`
        whenever the ids are contiguous, and the tuple adjacencies
        :attr:`fwd_adj`/:attr:`rev_adj` build on first use, exactly as for
        an owned snapshot.  The resulting snapshot is
        read-only (:attr:`buffer_backed`); :meth:`patch_weight` refuses to
        touch it because a write would leak into every mapping process.

        Bit-identity with a locally compiled snapshot holds because both the
        faithful kernel loop and the accelerated path read the same values
        in the same order -- index order, adjacency order and weight bytes
        are exactly those the build process serialized.
        """
        graph = cls(
            list(ids),
            fwd_offsets,
            fwd_targets,
            fwd_weights,
            rev_offsets,
            rev_targets,
            rev_weights,
            name=name,
        )
        graph.buffer_backed = True
        return graph

    @classmethod
    def from_columnar(cls, table, name: Optional[str] = None) -> "CSRGraph":
        """Compile a snapshot straight from a columnar edge table, dict-free.

        Two streaming passes over the table's edge chunks -- a degree count
        and a scatter placement -- build the flat arrays without ever
        materializing a :class:`RoadNetwork` (no per-node lists, no per-edge
        tuples).  Transient memory is O(chunk) beyond the output arrays
        themselves: the scatter writes through numpy views directly into
        the final ``array`` storage.

        Bit-identity with the snapshot of ``table.to_network()`` holds by
        construction: node index order is ascending id order (``np.sort``),
        and each node's span lists its edges in table order, which the
        importers define as input-file order -- the same order a network
        built row-by-row would hold in its spans.
        """
        id_chunks = [np.asarray(ids, dtype=np.int64) for ids, _, _ in table.iter_node_chunks()]
        ids_np = (
            np.sort(np.concatenate(id_chunks)) if id_chunks else np.empty(0, dtype=np.int64)
        )
        del id_chunks
        if len(ids_np) > 1 and bool((ids_np[1:] == ids_np[:-1]).any()):
            raise ValueError("columnar table declares duplicate node ids")
        n = int(len(ids_np))

        def locate(values) -> "np.ndarray":
            indexes = np.searchsorted(ids_np, values)
            clipped = np.minimum(indexes, max(n - 1, 0))
            if n == 0 or bool((ids_np[clipped] != values).any()):
                raise ValueError(
                    "columnar table has edges referencing undeclared nodes"
                )
            return clipped

        fwd_deg = np.zeros(n, dtype=np.int64)
        rev_deg = np.zeros(n, dtype=np.int64)
        num_edges = 0
        for src, dst, _ in table.iter_edge_chunks():
            fwd_deg += np.bincount(locate(src), minlength=n)
            rev_deg += np.bincount(locate(dst), minlength=n)
            num_edges += len(src)

        # The degree arrays become the offsets *and* the scatter cursors:
        # the final ``array('l')`` offsets are copied out immediately so no
        # extra n-sized numpy offset arrays stay live through the scatter
        # pass (the RSS budget at continental scale is tight enough that
        # each full-length transient shows up in the benchmark).
        fwd_offsets_np = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(fwd_deg, out=fwd_offsets_np[1:])
        rev_offsets_np = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(rev_deg, out=rev_offsets_np[1:])
        del fwd_deg, rev_deg
        fwd_offsets = array("l")
        fwd_offsets.frombytes(fwd_offsets_np.tobytes())
        rev_offsets = array("l")
        rev_offsets.frombytes(rev_offsets_np.tobytes())
        fwd_cursor = fwd_offsets_np[:-1]
        rev_cursor = rev_offsets_np[:-1]
        del fwd_offsets_np, rev_offsets_np

        # Allocate the final array storage up front and scatter through
        # writable numpy views -- no full-size numpy intermediate to copy.
        fwd_targets = array("l", [0]) * num_edges
        fwd_weights = array("d", [0.0]) * num_edges
        rev_targets = array("l", [0]) * num_edges
        rev_weights = array("d", [0.0]) * num_edges
        if num_edges:
            views = {
                "fwd_t": np.frombuffer(fwd_targets, dtype=np.int64),
                "fwd_w": np.frombuffer(fwd_weights, dtype=np.float64),
                "rev_t": np.frombuffer(rev_targets, dtype=np.int64),
                "rev_w": np.frombuffer(rev_weights, dtype=np.float64),
            }
            def scatter(t_view, w_view, cursor, group, values, weights) -> None:
                # Stable sort by source keeps within-chunk file order inside
                # each group; the per-group cursor keeps it across chunks.
                order = np.argsort(group, kind="stable")
                grouped = group[order]
                first = np.searchsorted(grouped, grouped, side="left")
                positions = cursor[grouped] + (np.arange(len(grouped)) - first)
                t_view[positions] = values[order]
                w_view[positions] = weights[order]
                # Chunk-sized cursor advance (``bincount(minlength=n)`` would
                # allocate a full-length transient per chunk).
                uniq, counts = np.unique(grouped, return_counts=True)
                cursor[uniq] += counts

            for src, dst, weights_chunk in table.iter_edge_chunks():
                u = locate(src)
                v = locate(dst)
                w = np.asarray(weights_chunk, dtype=np.float64)
                scatter(views["fwd_t"], views["fwd_w"], fwd_cursor, u, v, w)
                scatter(views["rev_t"], views["rev_w"], rev_cursor, v, u, w)
            del views
        del fwd_cursor, rev_cursor

        # Flat id storage, not ``tolist()``: a list of n distinct boxed ints
        # costs ~36 bytes/node, which alone would break the continental
        # build's memory budget.  Every consumer indexes or iterates, and
        # ``array`` hands back plain ints either way.
        ids_arr = array("l")
        ids_arr.frombytes(ids_np.tobytes())
        return cls(
            ids_arr,
            fwd_offsets,
            fwd_targets,
            fwd_weights,
            rev_offsets,
            rev_targets,
            rev_weights,
            name=name or f"{table.name}-csr",
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.ids)

    @property
    def num_edges(self) -> int:
        return len(self.fwd_targets)

    def edge_endpoints(self, reverse: bool = False) -> Tuple[np.ndarray, np.ndarray]:
        """Each edge's span node and the node it names, as int64 index
        arrays in one direction's edge order: tails and heads forward,
        heads and tails reverse."""
        offsets = self.rev_offsets if reverse else self.fwd_offsets
        targets = self.rev_targets if reverse else self.fwd_targets
        degree = np.diff(np.frombuffer(offsets, dtype=np.int64))
        owners = np.repeat(np.arange(self.num_nodes, dtype=np.int64), degree)
        return owners, np.frombuffer(targets, dtype=np.int64)

    def size_bytes(self) -> int:
        """Approximate memory of the flat arrays (not the derived views)."""
        return sum(
            arr.itemsize * len(arr)
            for arr in (
                self.fwd_offsets,
                self.fwd_targets,
                self.fwd_weights,
                self.rev_offsets,
                self.rev_targets,
                self.rev_weights,
            )
        )

    # ------------------------------------------------------------------
    # In-place weight patching (dynamic networks)
    # ------------------------------------------------------------------
    def patch_weight(
        self, source: int, target: int, old_weight: float, new_weight: float
    ) -> None:
        """Update one directed edge's weight without recompiling.

        Mirrors :meth:`RoadNetwork.update_edge_weight`'s choice among
        parallel edges: the patched entry is the *first* occurrence of
        ``(target, old_weight)`` in the source's span (adjacency order is
        preserved by construction, so this is the same physical edge the
        network updated).  Raises ``KeyError`` when no such entry exists --
        the snapshot would be silently stale otherwise.

        A new weight that would break the label bound raises
        ``ValueError`` (:func:`~repro.network.weights.update_error`).
        Buffer-backed snapshots (:meth:`from_buffers`) raise
        :class:`ImmutableSnapshotError` (a ``TypeError``): their arrays live
        in a shared segment mapped by other processes, so an in-place patch
        would mutate every worker's view at once.
        """
        if self.buffer_backed:
            raise ImmutableSnapshotError(
                "serving snapshots are immutable; refresh via re-publish "
                "(the snapshot's arrays live in a shared read-only segment "
                "mapped by other workers)"
            )
        weights = np.frombuffer(self.fwd_weights, dtype=np.float64)
        error = update_error(new_weight, self.num_nodes, weights.min(), weights.max())
        if error is not None:
            raise ValueError(f"edge {source} -> {target}: {error}")
        u = self.index_of[source]
        v = self.index_of[target]
        self._patch_span(
            self.fwd_offsets, self.fwd_targets, self.fwd_weights, u, v, old_weight, new_weight
        )
        self._patch_span(
            self.rev_offsets, self.rev_targets, self.rev_weights, v, u, old_weight, new_weight
        )
        # The kernel's numpy views share the arrays' buffers, so the
        # weight change is already visible there; the tuple rows, if the
        # faithful loop built them, rebuild on its next use.
        self._fwd_adj = self._rev_adj = None

    def weights_before(self, changes) -> np.ndarray:
        """The forward edge weights as a float64 copy, with each weight
        change (one per physical edge, as a network's pending delta holds
        them) undone: the weights before :meth:`patch_weight` applied the
        changes.  Parallel edges may come back in another order within
        their span; each ``(source, target)`` pair gets its weights back."""
        weights = np.frombuffer(self.fwd_weights, dtype=np.float64).copy()
        for change in changes:
            if change.old_weight != change.new_weight:
                self._patch_span(
                    self.fwd_offsets,
                    self.fwd_targets,
                    weights,
                    self.index_of[change.source],
                    self.index_of[change.target],
                    change.new_weight,
                    change.old_weight,
                )
        return weights

    @staticmethod
    def _patch_span(
        offsets: array,
        targets: array,
        weights: array,
        node: int,
        other: int,
        old_weight: float,
        new_weight: float,
    ) -> None:
        for position in range(offsets[node], offsets[node + 1]):
            if targets[position] == other and weights[position] == old_weight:
                weights[position] = new_weight
                return
        raise KeyError(
            f"no CSR entry for edge {node} -> {other} with weight {old_weight!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CSRGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
