"""Frozen CSR (compressed sparse row) snapshots of a road network.

:class:`CSRGraph` compiles the dict-of-lists adjacency of a
:class:`~repro.network.graph.RoadNetwork` (or any raw adjacency mapping)
into contiguous int-indexed arrays: ``array('l')`` offsets/targets and
``array('d')`` weights, forward *and* reverse, plus id <-> index maps.  The
array kernel (:mod:`repro.network.algorithms.kernel`) runs its shortest
path searches over this layout instead of chasing per-node dict entries.

Two invariants make kernel results bit-identical to the dict Dijkstra:

* **Index order is node-id order.**  Node index ``i`` is the rank of its id
  among all sorted ids, so a heap ordered by ``(distance, index)`` pops in
  exactly the same sequence as the dict implementation's
  ``(distance, node_id)`` heap -- equal-distance ties settle identically.
* **Edge order is adjacency order.**  Each node's CSR span lists its edges
  in the same order as the network's adjacency list, so relaxations (and
  therefore predecessor assignment on ties) replay in the same sequence.

The flat arrays are the snapshot's one stored form; a serving worker maps
them from a shared segment (:meth:`CSRGraph.from_buffers`) instead of
owning them.  Every snapshot, owned or mapped, derives the same lazy
per-process tuple adjacency (:attr:`CSRGraph.fwd_adj`) for the kernel's
faithful loop.

Snapshots are frozen: the owning network caches one per
:meth:`~repro.network.graph.RoadNetwork.fingerprint` and keeps it fresh by
**patching weights in place** on dynamic weight updates
(:meth:`patch_weight`) while invalidating it on any structural mutation
(adding/removing nodes or edges changes the index maps and spans).
"""

from __future__ import annotations

import operator as _operator
from array import array
from collections.abc import Mapping as _MappingABC
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = ["CSRGraph", "ImmutableSnapshotError"]


class ImmutableSnapshotError(TypeError):
    """Mutation attempted on a read-only (shared or columnar) snapshot.

    Raised instead of mutating arrays that other processes map
    (:meth:`CSRGraph.from_buffers` serving segments) or that back a
    read-only facade (:class:`~repro.network.ingest.facade.ColumnarNetwork`).
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


def _has_nonpositive(weights) -> bool:
    """Whether any edge weight is ``<= 0`` (numpy-assisted when available)."""
    if not len(weights):
        return False
    try:
        import numpy
    except ImportError:
        return min(weights) <= 0.0
    return bool(numpy.frombuffer(weights, dtype=numpy.float64).min() <= 0.0)


class CSRGraph:
    """An immutable-topology CSR view of a directed weighted graph.

    Build through :meth:`from_network` or :meth:`from_adjacency`; the
    constructor itself only wires pre-compiled arrays together.
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
    ) -> None:
        self.name = name
        #: Node ids in index order (ascending -- see module docstring).
        self.ids = ids
        #: node id -> node index (a dict, or an arithmetic
        #: :class:`_RangeIndex` when the ids are a contiguous range).
        self.index_of = _index_map(ids)
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
        #: ``True`` when some edge weight is ``<= 0``.  The kernel's
        #: accelerated SSSP path reconstructs predecessors from the settle
        #: order, which is only provably identical to the dict heap's under
        #: strictly positive weights; this flag routes such graphs onto the
        #: faithful simulation loop.  Weight patches are validated positive,
        #: so the flag can only stay or clear at the next full build.
        self.has_nonpositive_weight = _has_nonpositive(fwd_weights)
        #: Accelerator cache slot (numpy/scipy views built lazily by the
        #: kernel; ``None`` until first use, shared by reference so in-place
        #: weight patches propagate without rebuilding).
        self._accel = None

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
    def _compile(
        cls,
        ids: List[int],
        index_of: Dict[int, int],
        neighbor_lists: Iterable[Sequence[Tuple[int, float]]],
    ) -> Tuple[array, array, array]:
        offsets = array("l", [0])
        targets = array("l")
        weights = array("d")
        for neighbors in neighbor_lists:
            for target, weight in neighbors:
                targets.append(index_of[target])
                weights.append(weight)
            offsets.append(len(targets))
        return offsets, targets, weights

    @classmethod
    def from_network(cls, network) -> "CSRGraph":
        """Compile a :class:`~repro.network.graph.RoadNetwork` snapshot.

        Per-node edge order follows the network's adjacency lists exactly
        (forward lists for the forward arrays, the incrementally maintained
        reverse lists for the reverse arrays), preserving relaxation order.
        """
        ids = sorted(network.node_ids())
        index_of = {nid: i for i, nid in enumerate(ids)}
        adjacency = network.adjacency()
        reverse = network.reverse_adjacency()
        fwd = cls._compile(ids, index_of, (adjacency[nid] for nid in ids))
        rev = cls._compile(ids, index_of, (reverse[nid] for nid in ids))
        return cls(ids, *fwd, *rev, name=f"{network.name}-csr")

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Mapping[int, Sequence[Tuple[int, float]]],
        extra_nodes: Iterable[int] = (),
        name: str = "adjacency-csr",
    ) -> "CSRGraph":
        """Compile a raw ``{node: [(target, weight), ...]}`` mapping.

        Used for overlay graphs (HiTi's super-edge blocks) that never
        materialize a :class:`RoadNetwork`.  Nodes appearing only as edge
        targets, plus any ``extra_nodes``, are included with empty spans so
        a search may start from them.
        """
        node_set = set(adjacency)
        node_set.update(extra_nodes)
        for neighbors in adjacency.values():
            node_set.update(target for target, _ in neighbors)
        ids = sorted(node_set)
        index_of = {nid: i for i, nid in enumerate(ids)}
        fwd = cls._compile(ids, index_of, (adjacency.get(nid, ()) for nid in ids))
        reverse: Dict[int, List[Tuple[int, float]]] = {nid: [] for nid in ids}
        for nid in ids:
            for target, weight in adjacency.get(nid, ()):
                reverse[target].append((nid, weight))
        rev = cls._compile(ids, index_of, (reverse[nid] for nid in ids))
        return cls(ids, *fwd, *rev, name=name)

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
        flat arrays.  Nothing is copied here; the id list and the
        id -> index map are per-process, and so are the tuple adjacencies
        :attr:`fwd_adj`/:attr:`rev_adj` build on first use, exactly as for
        an owned snapshot.  The resulting snapshot is read-only
        (:attr:`buffer_backed`); :meth:`patch_weight` refuses to touch it
        because a write would leak into every mapping process.

        Bit-identity with a locally compiled snapshot holds because both the
        faithful kernel loop and the accelerated path read the same values
        in the same order -- index order, adjacency order and weight bytes
        are exactly those the build process serialized.
        """
        graph = cls.__new__(cls)
        graph.name = name
        graph.ids = list(ids)
        graph.index_of = {nid: i for i, nid in enumerate(graph.ids)}
        graph.fwd_offsets = fwd_offsets
        graph.fwd_targets = fwd_targets
        graph.fwd_weights = fwd_weights
        graph.rev_offsets = rev_offsets
        graph.rev_targets = rev_targets
        graph.rev_weights = rev_weights
        graph.buffer_backed = True
        graph._fwd_adj = None
        graph._rev_adj = None
        graph.has_nonpositive_weight = _has_nonpositive(fwd_weights)
        graph._accel = None
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

        Bit-identity with ``from_network(table.to_network())`` holds by
        construction: node index order is ascending id order (``np.sort``),
        and each node's span lists its edges in table order, which the
        importers define as input-file order -- the same order a dict
        network built row-by-row would hold in its adjacency lists.
        """
        import numpy as np

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

    def adjacency_of(self, node_id: int) -> Tuple[Tuple[int, float], ...]:
        """Forward ``(neighbor_index, weight)`` pairs of ``node_id``."""
        return self.fwd_adj[self.index_of[node_id]]

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
        u = self.index_of[source]
        v = self.index_of[target]
        self._patch_span(
            self.fwd_offsets, self.fwd_targets, self.fwd_weights, u, v, old_weight, new_weight
        )
        self.fwd_adj[u] = self._rezip(self.fwd_offsets, self.fwd_targets, self.fwd_weights, u)
        self._patch_span(
            self.rev_offsets, self.rev_targets, self.rev_weights, v, u, old_weight, new_weight
        )
        self.rev_adj[v] = self._rezip(self.rev_offsets, self.rev_targets, self.rev_weights, v)
        if new_weight <= 0.0:  # update_edge_weight validates > 0; stay safe
            self.has_nonpositive_weight = True
        # The accelerator's numpy views share the arrays' buffers, so the
        # weight change is already visible there; nothing to rebuild.

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

    @staticmethod
    def _rezip(
        offsets: array, targets: array, weights: array, node: int
    ) -> Tuple[Tuple[int, float], ...]:
        start, end = offsets[node], offsets[node + 1]
        return tuple(zip(targets[start:end], weights[start:end]))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"CSRGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
