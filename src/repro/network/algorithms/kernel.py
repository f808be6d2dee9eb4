"""Array-based shortest path kernel over :class:`~repro.network.csr.CSRGraph`.

Every shortest path search in the package runs here, over flat int-indexed
buffers -- one list index per operation -- with *full* single-source sweeps
routed through ``scipy.sparse.csgraph.dijkstra`` (a compiled CSR Dijkstra)
and an exact numpy reconstruction of everything the textbook dict Dijkstra
reports.

**Bit-identity contract.**  Every search result is bit-identical to the
dict implementation's (kept as the test oracle ``tests/oracles/dijkstra.py``):
identical IEEE-754 distance values, identical predecessor choices on
equal-distance ties, identical settled counts, and an identical node
discovery order (the dict implementation's ``distances`` insertion order).
Two mechanisms deliver this:

* Masked and multi-target searches (:meth:`KernelArena.point_to_point`
  with ``allowed``, :meth:`KernelArena.multi_target`) run a **faithful
  simulation** of the dict loop over the CSR arrays -- same heap entries
  (index order is id order), same relaxation order, same termination tests
  -- so even the *tentative* frontier labels left behind by an early stop
  match.  The client searches run the same loop: ``adjacency=`` swaps in
  per-node rows (HiTi's overlay, ArcFlag's flagged rows) and ``potential=``
  turns it into A* (Landmark's lower bounds), each bit-identical to its
  dict reference in ``tests/oracles/``.
* Full sweeps (:meth:`KernelArena.sssp`) and plain point-to-point
  searches (no mask, rows or potential) take the distance labels from
  scipy (relaxation order cannot change the converged float values) and
  then reconstruct predecessors and discovery order from the settle order,
  which under strictly positive weights provably equals sorting reachable
  nodes by ``(distance, node id)``.  Snapshots with a non-positive edge weight keep the faithful loop
  for every search that reports a tree (see
  :attr:`~repro.network.csr.CSRGraph.has_nonpositive_weight`).

A :class:`KernelArena` binds the reusable parts -- the numpy/scipy views of
the CSR arrays, scratch key buffers -- to one snapshot; arenas are cached
per thread (:func:`arena_for`) so the hundreds of border-source sweeps of a
pre-computation, or the per-query masked searches of concurrent clients,
never rebuild them.
"""

from __future__ import annotations

import heapq
import threading
import weakref
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as _np
from scipy.sparse import csr_matrix as _csr_matrix
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from repro.network.algorithms.paths import PathResult
from repro.network.csr import CSRGraph

__all__ = [
    "KernelArena",
    "KernelResult",
    "arena_for",
    "many_to_many",
    "point_to_point",
    "sssp",
]

_INF = float("inf")

#: Batched scipy sweeps are chunked so the dense ``sources x nodes``
#: distance matrix stays bounded (~8 MB of float64 per chunk at 1M nodes).
_BATCH_CHUNK = 64


class KernelResult:
    """One search's labels, indexed by node *index* (see ``csr.ids``).

    ``dist``/``pred`` cover every node (unreached entries are ``inf`` /
    ``-1``); ``order`` lists the discovered indexes in the dict
    implementation's ``distances`` insertion order and is ``None`` for
    distance-only sweeps (where no consumer observes ordering).  The
    buffers are owned by the result -- arenas never reclaim them.

    Compiled point-to-point results are *deferred*: the compiled sweep
    answers the query (distance, settled count) immediately, and the
    truncated replay reconstructing labels/predecessors/discovery order
    runs once, on the first read of ``dist``/``pred``/``order``.  Callers
    that never walk the tree -- distance probes, existence checks -- skip
    the reconstruction entirely; callers that do observe byte-for-byte the
    same buffers as before.
    """

    __slots__ = (
        "csr",
        "source",
        "source_index",
        "_dist",
        "_dist_np",
        "_pred",
        "_order",
        "settled",
        "_reached",
        "_finish",
        "_probe",
    )

    def __init__(
        self,
        csr: CSRGraph,
        source: int,
        dist: Optional[List[float]],
        pred: Optional[List[int]],
        order: Optional[List[int]],
        settled: int,
        dist_np=None,
        finish=None,
        probe=None,
    ) -> None:
        self.csr = csr
        self.source = source
        self.source_index = csr.index_of[source]
        self._dist = dist
        self._dist_np = dist_np
        self._pred = pred
        self._order = order
        self.settled = settled
        self._reached: Optional[List[int]] = None
        #: Deferred reconstruction: a zero-argument callable returning
        #: ``(dist_np, pred, order)``, run at most once.
        self._finish = finish
        #: Fast distance probes for deferred point-to-point results:
        #: ``(dist_full, target_dist, target_index)`` from the converged
        #: sweep -- settled nodes (those the early-terminating loop locked
        #: in) can be answered without running the reconstruction.
        self._probe = probe

    def _materialize(self) -> None:
        finish = self._finish
        self._finish = None
        self._probe = None
        self._dist_np, self._pred, self._order = finish()

    # -- reads ---------------------------------------------------------
    @property
    def dist_np(self):
        """The labels as a float64 vector when the sweep came off scipy
        (``None`` on the faithful loop) -- vectorized consumers index it
        without re-boxing the list."""
        if self._dist_np is None and self._finish is not None:
            self._materialize()
        return self._dist_np

    @property
    def pred(self) -> Optional[List[int]]:
        if self._pred is None and self._finish is not None:
            self._materialize()
        return self._pred

    @property
    def order(self) -> Optional[List[int]]:
        if self._order is None and self._finish is not None:
            self._materialize()
        return self._order

    @property
    def dist(self) -> List[float]:
        """The labels as a plain list, boxed lazily from ``dist_np``.

        Compiled sweeps carry their labels as a float64 vector;
        vectorized consumers (ArcFlag's flag construction) never pay for
        the list, while list consumers box it once on first access.
        """
        if self._dist is None:
            self._dist = self.dist_np.tolist()
        return self._dist

    def distance_to(self, node_id: int) -> float:
        """Distance label of ``node_id`` (``inf`` when unreached/unknown)."""
        index = self.csr.index_of.get(node_id)
        if index is None:
            return _INF
        if self._finish is not None and self._probe is not None:
            dist_full, target_dist, target_index = self._probe
            d = dist_full[index]
            # Settled exactly when (d, index) <= (target_dist, target_index)
            # in the heap's (distance, index) settle order; those labels are
            # converged, so the sweep's value is the faithful loop's value.
            if d < target_dist or (d == target_dist and index <= target_index):
                return float(d)
            # Frontier or unreached: the faithful loop leaves a *tentative*
            # label here, which only the reconstruction knows.
        return self.dist[index]

    def path_result(self, target: int) -> PathResult:
        """The point-to-point answer for ``target`` read off these labels:
        distance, node-id path (empty when unreached) and settled count."""
        distance = self.distance_to(target)
        return PathResult(
            source=self.source,
            target=target,
            distance=distance,
            path=self.path_to(target) if distance != _INF else [],
            settled=self.settled,
        )

    def reached_indexes(self) -> List[int]:
        """Discovered node indexes (discovery order when tracked)."""
        if self.order is not None:
            return self.order
        if self._reached is None:
            if self.dist_np is not None:
                self._reached = _np.flatnonzero(_np.isfinite(self.dist_np)).tolist()
            else:
                dist = self.dist
                self._reached = [i for i in range(len(dist)) if dist[i] != _INF]
        return self._reached

    def distances_dict(self) -> Dict[int, float]:
        """``{node_id: distance}`` over discovered nodes.

        With ``order`` tracked the key order is the dict implementation's
        insertion order; distance-only results use index (= id) order --
        equal as a mapping, only iteration order differs.
        """
        ids = self.csr.ids
        dist = self.dist
        return {ids[i]: dist[i] for i in self.reached_indexes()}

    def predecessors_dict(self) -> Dict[int, Optional[int]]:
        """``{node_id: predecessor_id}`` (source maps to ``None``)."""
        if self.pred is None or self.order is None:
            raise ValueError("predecessors were not requested for this search")
        ids = self.csr.ids
        pred = self.pred
        source_index = self.source_index
        return {
            ids[i]: None if i == source_index else ids[pred[i]] for i in self.order
        }

    def path_to(self, node_id: int) -> List[int]:
        """Node-id path from the source (empty when unreached)."""
        if self.pred is None:
            raise ValueError("predecessors were not requested for this search")
        index = self.csr.index_of.get(node_id)
        if index is None or self.dist[index] == _INF:
            return []
        pred = self.pred
        path = [index]
        current = index
        source_index = self.source_index
        while current != source_index:
            current = pred[current]
            if current < 0:
                return []
            path.append(current)
        ids = self.csr.ids
        return [ids[i] for i in reversed(path)]


class _Accel:
    """Cached numpy/scipy views of one snapshot's arrays.

    The scipy matrices reference the CSR weight buffers directly (``numpy``
    ``frombuffer`` views), so :meth:`CSRGraph.patch_weight` keeps them
    fresh for free; the integer structure (offsets/targets, edge source and
    adjacency-position arrays used by the reconstruction) never changes for
    a frozen snapshot.
    """

    __slots__ = (
        "fwd_matrix",
        "rev_matrix",
        "fwd_edges",
        "rev_edges",
        "fwd_transpose",
        "rev_transpose",
    )

    def __init__(self, csr: CSRGraph) -> None:
        n = csr.num_nodes
        self.fwd_matrix = self._matrix(csr.fwd_offsets, csr.fwd_targets, csr.fwd_weights, n)
        self.rev_matrix = self._matrix(csr.rev_offsets, csr.rev_targets, csr.rev_weights, n)
        self.fwd_edges = None  # built lazily: only predecessor sweeps need them
        self.rev_edges = None
        self.fwd_transpose = None  # lazily: head-grouped permutation of fwd_edges
        self.rev_transpose = None

    @staticmethod
    def _matrix(offsets: array, targets: array, weights: array, n):  # type: ignore[name-defined]
        indptr = _np.frombuffer(offsets, dtype=_np.int64).astype(_np.int32)
        if len(targets):
            indices = _np.frombuffer(targets, dtype=_np.int64).astype(_np.int32)
            data = _np.frombuffer(weights, dtype=_np.float64)
        else:
            indices = _np.empty(0, dtype=_np.int32)
            data = _np.empty(0, dtype=_np.float64)
        # scipy treats duplicate (row, col) entries as parallel edges, which
        # matches RoadNetwork's min-parallel-edge shortest path semantics.
        return _csr_matrix((data, indices, indptr), shape=(n, n))

    @staticmethod
    def _edge_arrays(offsets: array, targets: array, weights: array):  # type: ignore[name-defined]
        indptr = _np.frombuffer(offsets, dtype=_np.int64)
        degrees = _np.diff(indptr)
        e_src = _np.repeat(_np.arange(len(degrees), dtype=_np.int64), degrees)
        if len(targets):
            e_dst = _np.frombuffer(targets, dtype=_np.int64)
            e_w = _np.frombuffer(weights, dtype=_np.float64)
        else:
            e_dst = _np.empty(0, dtype=_np.int64)
            e_w = _np.empty(0, dtype=_np.float64)
        e_adjpos = _np.arange(len(e_src), dtype=_np.int64) - indptr[e_src]
        return e_src, e_dst, e_w, e_adjpos

    def edges(self, csr: CSRGraph, reverse: bool):
        if reverse:
            if self.rev_edges is None:
                self.rev_edges = self._edge_arrays(
                    csr.rev_offsets, csr.rev_targets, csr.rev_weights
                )
            return self.rev_edges
        if self.fwd_edges is None:
            self.fwd_edges = self._edge_arrays(
                csr.fwd_offsets, csr.fwd_targets, csr.fwd_weights
            )
        return self.fwd_edges

    def transpose(self, csr: CSRGraph, reverse: bool):
        """Head-grouped view of one direction's edge list.

        ``(perm, starts, counts)``: ``perm`` stably permutes the edge
        arrays so entries sharing a head node ``e_dst`` are contiguous,
        ``starts``/``counts`` delimit each head's run.  Per-head minima
        (discovery keys, predecessor keys, tentative labels) then reduce
        with one ``np.minimum.reduceat`` pass instead of the unbuffered
        ``np.minimum.at`` scatter, which dominated reconstruction time.
        """
        cached = self.rev_transpose if reverse else self.fwd_transpose
        if cached is not None:
            return cached
        _, e_dst, _, _ = self.edges(csr, reverse)
        n = csr.num_nodes
        perm = _np.argsort(e_dst, kind="stable")
        counts = _np.bincount(e_dst, minlength=n)
        starts = _np.zeros(n, dtype=_np.int64)
        _np.cumsum(counts[:-1], out=starts[1:])
        built = (perm, starts, counts)
        if reverse:
            self.rev_transpose = built
        else:
            self.fwd_transpose = built
        return built


def _segment_min(values, starts, counts, sentinel):
    """Per-group minimum over pre-permuted ``values`` (see ``transpose``).

    Groups are the half-open runs ``values[starts[i] : starts[i] +
    counts[i]]``; empty groups yield ``sentinel``.  ``reduceat`` reduces
    between *consecutive* indices, so empty groups cannot simply be passed
    through (an empty run would also truncate its predecessor's extent);
    instead only the non-empty groups' starts are handed to ``reduceat`` --
    consecutive non-empty starts delimit exactly one group because the runs
    are contiguous.
    """
    out = _np.full(len(starts), sentinel, dtype=values.dtype)
    if len(values) == 0:
        return out
    nonempty = _np.flatnonzero(counts > 0)
    if len(nonempty):
        out[nonempty] = _np.minimum.reduceat(values, starts[nonempty])
    return out


class KernelArena:
    """Reusable search state bound to one :class:`CSRGraph` snapshot.

    One arena serves any number of sequential searches; it is *not*
    thread-safe -- use :func:`arena_for` to get a per-thread instance.
    """

    def __init__(self, csr: CSRGraph) -> None:
        # Weak, because arenas are cached in a WeakKeyDictionary keyed by
        # the snapshot: a strong value->key reference would keep the entry
        # (and with it every buffer the arena exported) alive forever.
        # Callers necessarily hold the snapshot while searching, so the
        # dereference never dangles mid-use.
        self._csr_ref = weakref.ref(csr)
        self.num_nodes = csr.num_nodes
        self._ids = None  # the snapshot's sorted ids as int64, on first mask

    @property
    def csr(self) -> CSRGraph:
        csr = self._csr_ref()
        if csr is None:  # pragma: no cover - caller dropped the snapshot
            raise ReferenceError("the arena's CSR snapshot has been collected")
        return csr

    # ------------------------------------------------------------------
    # numpy/scipy views, built once per snapshot
    # ------------------------------------------------------------------
    def _accel(self) -> _Accel:
        accel = self.csr._accel
        if accel is None:
            accel = self.csr._accel = _Accel(self.csr)
        return accel

    # ------------------------------------------------------------------
    # Public searches
    # ------------------------------------------------------------------
    def sssp(
        self, source: int, need_predecessors: bool = True, reverse: bool = False
    ) -> KernelResult:
        """Full single-source sweep (no early termination).

        ``need_predecessors=False`` skips predecessor/discovery-order
        reconstruction -- the fastest path for the many consumers that only
        read distance labels.
        """
        source_index = self._source_index(source)
        if need_predecessors and self.csr.has_nonpositive_weight:
            return self._faithful(source_index, source, reverse=reverse)
        accel = self._accel()
        matrix = accel.rev_matrix if reverse else accel.fwd_matrix
        dist_np = _scipy_dijkstra(matrix, directed=True, indices=source_index)
        return self._from_accel(dist_np, source, source_index, need_predecessors, reverse)

    def point_to_point(
        self,
        source: int,
        target: int,
        allowed: Optional[Iterable[int]] = None,
        reverse: bool = False,
        adjacency: Optional[Sequence[Sequence[Tuple[int, float]]]] = None,
        potential: Optional[Sequence[float]] = None,
    ) -> KernelResult:
        """Early-terminating point-to-point search.

        ``allowed`` restricts the search to a node subset -- the relaxation
        skips any neighbor outside it, which is exactly equivalent to (and
        replaces) materializing the induced subgraph first, as the EB/NR
        clients used to.  Both endpoints must belong to the subset.

        ``adjacency`` replaces the snapshot's forward rows for this search:
        one ``(neighbor_index, weight)`` row per node index (HiTi's overlay,
        ArcFlag's flagged rows).  ``potential`` is a per-index lower bound
        on the remaining distance to ``target`` (Landmark's ALT bound): the
        heap key becomes ``distance + potential`` with ties broken by index,
        i.e. A*.  A potential cannot be combined with ``allowed``.

        Unmasked searches over the snapshot's own rows on positive-weight
        snapshots run the compiled truncated-replay path
        (:meth:`_p2p_accel`); every other search keeps the faithful loop.
        """
        source_index = self._source_index(source)
        target_index = self.csr.index_of.get(target)
        if target_index is None:
            raise KeyError(f"unknown target node {target}")
        mask = None
        if allowed is not None:
            if potential is not None:
                raise ValueError("a potential cannot be combined with an allowed set")
            mask = self._allowed_mask(allowed)
            if not mask[source_index]:
                raise KeyError(f"source node {source} is outside the allowed set")
            if not mask[target_index]:
                raise KeyError(f"target node {target} is outside the allowed set")
        if (
            mask is None
            and adjacency is None
            and potential is None
            and not self.csr.has_nonpositive_weight
        ):
            return self._p2p_accel(source, source_index, target_index, reverse)
        return self._faithful(
            source_index,
            source,
            target_index=target_index,
            mask=mask,
            reverse=reverse,
            adjacency=adjacency,
            potential=potential,
        )

    def _allowed_mask(self, allowed: Iterable[int]) -> bytearray:
        """A 0/1 byte per node index, set for the ``allowed`` ids.

        Ids are sorted in index order, so one ``searchsorted`` maps the
        whole set -- a per-id ``index_of`` lookup costs a Python call each
        when ``index_of`` is the arithmetic range map.
        """
        ids = self._ids
        if ids is None:
            ids = self._ids = _np.asarray(self.csr.ids, dtype=_np.int64)
        wanted = _np.fromiter(allowed, dtype=_np.int64)
        positions = ids.searchsorted(wanted)
        found = ids.take(positions, mode="clip")
        if not _np.array_equal(found, wanted):
            raise KeyError(int(wanted[found != wanted][0]))
        mask = _np.zeros(self.num_nodes, dtype=_np.uint8)
        mask[positions] = 1
        return bytearray(mask)

    def multi_target(
        self, source: int, targets: Iterable[int], reverse: bool = False
    ) -> KernelResult:
        """Search that stops once every (reachable) target is settled."""
        source_index = self._source_index(source)
        return self._faithful(
            source_index, source, remaining=set(targets), reverse=reverse
        )

    def search(
        self,
        source: int,
        target: Optional[int] = None,
        targets: Optional[Iterable[int]] = None,
        reverse: bool = False,
    ) -> KernelResult:
        """General search mirroring the dict reference loop's termination rules.

        ``target`` and ``targets`` may be combined, exactly like the dict
        reference loop: the search stops at whichever condition fires first.
        An unknown ``target`` never settles, so (as in the reference) it
        does not terminate anything by itself.
        """
        source_index = self._source_index(source)
        target_index = self.csr.index_of.get(target) if target is not None else None
        remaining = set(targets) if targets is not None else None
        if target_index is None and remaining is None:
            # No live termination condition: a full sweep.
            return self.sssp(source, reverse=reverse)
        if (
            remaining is None
            and target_index is not None
            and not self.csr.has_nonpositive_weight
        ):
            return self._p2p_accel(source, source_index, target_index, reverse)
        return self._faithful(
            source_index,
            source,
            target_index=target_index,
            remaining=remaining,
            reverse=reverse,
        )

    def many_to_many(
        self,
        sources: Sequence[int],
        need_predecessors: bool = False,
        reverse: bool = False,
    ) -> List[KernelResult]:
        """Batched full sweeps, one per source, in source order.

        The distance labels of up to ``_BATCH_CHUNK`` sources are computed
        by a single scipy call.
        """
        sources = list(sources)
        if need_predecessors and self.csr.has_nonpositive_weight:
            return [
                self.sssp(source, need_predecessors=True, reverse=reverse)
                for source in sources
            ]
        accel = self._accel()
        index_of = self.csr.index_of
        matrix = accel.rev_matrix if reverse else accel.fwd_matrix
        results: List[KernelResult] = []
        for start in range(0, len(sources), _BATCH_CHUNK):
            chunk = sources[start : start + _BATCH_CHUNK]
            chunk_indexes = [self._source_index(source) for source in chunk]
            dist_block = _scipy_dijkstra(matrix, directed=True, indices=chunk_indexes)
            if len(chunk) == 1:
                dist_block = dist_block.reshape(1, -1)
            for row, source in enumerate(chunk):
                results.append(
                    self._from_accel(
                        dist_block[row],
                        source,
                        index_of[source],
                        need_predecessors,
                        reverse,
                    )
                )
        return results

    # ------------------------------------------------------------------
    # Accelerated full sweep: distances from scipy, exact reconstruction
    # ------------------------------------------------------------------
    def _from_accel(
        self,
        dist_np,
        source: int,
        source_index: int,
        need_predecessors: bool,
        reverse: bool,
    ) -> KernelResult:
        finite = _np.isfinite(dist_np)
        if not need_predecessors:
            settled = int(_np.count_nonzero(finite))
            return KernelResult(
                self.csr, source, None, None, None, settled, dist_np=dist_np
            )
        pred, order = self._reconstruct(dist_np, finite, source_index, reverse)
        return KernelResult(
            self.csr, source, None, pred, order, len(order), dist_np=dist_np
        )

    def _reconstruct(
        self, dist_np, finite, source_index: int, reverse: bool
    ) -> Tuple[List[int], List[int]]:
        """Predecessors and discovery order of the faithful heap replay.

        Under strictly positive weights the dict heap settles reachable
        nodes exactly in ``(distance, id)`` order.  Replaying relaxations in
        (settle order of the tail node, position within its adjacency list)
        order therefore reproduces, for every node, both its first
        discovery (first relaxation of any kind) and its final predecessor
        (first relaxation achieving the converged distance).  Both replays
        reduce to per-node minima of a combined ``rank * K + position`` key,
        computed vectorized over the edge arrays.
        """
        n = self.num_nodes
        accel = self._accel()
        e_src, e_dst, e_w, e_adjpos = accel.edges(self.csr, reverse)
        perm, starts, counts = accel.transpose(self.csr, reverse)
        reachable = _np.flatnonzero(finite)
        settle = reachable[_np.lexsort((reachable, dist_np[reachable]))]
        rank = _np.full(n, n, dtype=_np.int64)
        rank[settle] = _np.arange(len(settle), dtype=_np.int64)

        stride = len(e_src) + 1
        sentinel = (n + 1) * stride
        ekey = rank[e_src] * stride + e_adjpos
        valid = finite[e_src]

        # Discovery: first relaxation into each node, of any kind.
        discovery_key = _segment_min(
            _np.where(valid, ekey, sentinel)[perm], starts, counts, sentinel
        )
        others = reachable[reachable != source_index]
        order_tail = others[_np.argsort(discovery_key[others])]
        order = [source_index] + order_tail.tolist()

        # Predecessor: first relaxation achieving the converged distance.
        achieves = valid & (dist_np[e_src] + e_w == dist_np[e_dst])
        best_key = _segment_min(
            _np.where(achieves, ekey, sentinel)[perm], starts, counts, sentinel
        )
        chosen = achieves & (ekey == best_key[e_dst])
        pred_np = _np.full(n, -1, dtype=_np.int64)
        pred_np[e_dst[chosen]] = e_src[chosen]
        pred_np[source_index] = -1
        return pred_np.tolist(), order

    def _p2p_accel(
        self, source: int, source_index: int, target_index: int, reverse: bool
    ) -> KernelResult:
        """Accelerated exact point-to-point: full sweep + truncated replay.

        One compiled scipy sweep yields the converged labels; everything the
        early-terminating dict loop would have left behind is then derived
        from the settle order.  Under strictly positive weights the loop
        settles reachable nodes in ``(distance, index)`` order and stops
        *after popping the target, before relaxing its edges* -- so exactly
        the nodes ranked before the target act as relaxation tails.  Per
        node, the minimum ``d(tail) + w`` over those tails' edges is the
        tentative label at the break; the minimum ``(tail rank, adjacency
        position)`` key is its discovery; the first such key achieving the
        tentative label is its predecessor.  All three are per-head minima
        over the edge list -- one ``reduceat`` pass each -- making this
        bit-identical to :meth:`_faithful` including the tentative frontier
        labels it leaves behind.

        The replay itself is *deferred* (see :class:`KernelResult`): only
        the compiled sweep and an O(n) rank count run per query, so
        distance probes -- the dominant p2p consumer -- never pay for tree
        reconstruction they do not read.
        """
        csr = self.csr
        accel = self._accel()
        matrix = accel.rev_matrix if reverse else accel.fwd_matrix
        dist_full = _scipy_dijkstra(matrix, directed=True, indices=source_index)
        target_dist = dist_full[target_index]
        if not _np.isfinite(target_dist):
            # The loop would exhaust the reachable set: a full sweep.
            return self._from_accel(dist_full, source, source_index, True, reverse)

        # The target's settle rank, without sorting: the heap settles
        # reachable nodes in (distance, index) order, so the rank is the
        # count of nodes strictly ahead in that order (unreached entries
        # are ``inf`` and never compare ahead of a finite label).
        target_rank = int(
            _np.count_nonzero(dist_full < target_dist)
            + _np.count_nonzero(dist_full[:target_index] == target_dist)
        )
        n = self.num_nodes

        def finish():
            finite = _np.isfinite(dist_full)
            e_src, e_dst, e_w, e_adjpos = accel.edges(csr, reverse)
            perm, starts, counts = accel.transpose(csr, reverse)
            reachable = _np.flatnonzero(finite)
            settle = reachable[_np.lexsort((reachable, dist_full[reachable]))]
            rank = _np.full(n, n, dtype=_np.int64)
            rank[settle] = _np.arange(len(settle), dtype=_np.int64)

            valid = rank[e_src] < target_rank
            relax = dist_full[e_src] + e_w

            # Tentative labels: minimum relaxation into each node.
            tentative = _segment_min(
                _np.where(valid, relax, _INF)[perm], starts, counts, _INF
            )
            tentative[source_index] = 0.0

            stride = len(e_src) + 1
            sentinel = (n + 1) * stride
            ekey = rank[e_src] * stride + e_adjpos
            discovery_key = _segment_min(
                _np.where(valid, ekey, sentinel)[perm], starts, counts, sentinel
            )
            discovery_key[source_index] = sentinel
            discovered = _np.flatnonzero(discovery_key < sentinel)
            order = [source_index] + discovered[
                _np.argsort(discovery_key[discovered])
            ].tolist()

            achieves = valid & (relax == tentative[e_dst])
            best_key = _segment_min(
                _np.where(achieves, ekey, sentinel)[perm], starts, counts, sentinel
            )
            chosen = achieves & (ekey == best_key[e_dst])
            pred_np = _np.full(n, -1, dtype=_np.int64)
            pred_np[e_dst[chosen]] = e_src[chosen]
            pred_np[source_index] = -1
            return tentative, pred_np.tolist(), order

        return KernelResult(
            csr,
            source,
            None,
            None,
            None,
            target_rank + 1,
            finish=finish,
            probe=(dist_full, target_dist, target_index),
        )

    # ------------------------------------------------------------------
    # Faithful simulation of the dict Dijkstra over the flat arrays
    # ------------------------------------------------------------------
    def _source_index(self, source: int) -> int:
        index = self.csr.index_of.get(source)
        if index is None:
            raise KeyError(f"unknown source node {source}")
        return index

    def _faithful(
        self,
        source_index: int,
        source: int,
        target_index: Optional[int] = None,
        remaining: Optional[set] = None,
        mask: Optional[bytearray] = None,
        reverse: bool = False,
        adjacency: Optional[Sequence[Sequence[Tuple[int, float]]]] = None,
        potential: Optional[Sequence[float]] = None,
    ) -> KernelResult:
        csr = self.csr
        if adjacency is None:
            adjacency = csr.rev_adj if reverse else csr.fwd_adj
        ids = csr.ids
        dist = [_INF] * self.num_nodes
        pred = [-1] * self.num_nodes
        order = [source_index]
        dist[source_index] = 0.0
        pop = heapq.heappop
        push = heapq.heappush
        append = order.append
        settled = 0
        if potential is not None:
            # A*: keys are ``distance + potential``, so a stale entry can no
            # longer be told by its key; a settled flag per node replaces
            # the ``d > dist[u]`` test (an inconsistent bound may still
            # lower a settled node's label, which is then never expanded).
            done = bytearray(self.num_nodes)
            heap: List[Tuple[float, int]] = [(potential[source_index], source_index)]
            while heap:
                u = pop(heap)[1]
                if done[u]:
                    continue
                done[u] = 1
                settled += 1
                if u == target_index:
                    break
                d = dist[u]
                for v, w in adjacency[u]:
                    nd = d + w
                    if nd < dist[v]:
                        if dist[v] == _INF:
                            append(v)
                        dist[v] = nd
                        pred[v] = u
                        push(heap, (nd + potential[v], v))
            return KernelResult(csr, source, dist, pred, order, settled)
        heap = [(0.0, source_index)]
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                # A better entry for u already settled it (entries per node
                # carry strictly decreasing labels, so this test is exactly
                # the dict implementation's settled-set membership probe).
                continue
            settled += 1
            if u == target_index:
                break
            if remaining is not None:
                remaining.discard(ids[u])
                if not remaining:
                    break
            if mask is None:
                for v, w in adjacency[u]:
                    nd = d + w
                    if nd < dist[v]:
                        if dist[v] == _INF:
                            append(v)
                        dist[v] = nd
                        pred[v] = u
                        push(heap, (nd, v))
            else:
                for v, w in adjacency[u]:
                    if not mask[v]:
                        continue
                    nd = d + w
                    if nd < dist[v]:
                        if dist[v] == _INF:
                            append(v)
                        dist[v] = nd
                        pred[v] = u
                        push(heap, (nd, v))
        return KernelResult(csr, source, dist, pred, order, settled)


# ----------------------------------------------------------------------
# Per-thread arena registry
# ----------------------------------------------------------------------
_thread_arenas = threading.local()


def arena_for(csr: CSRGraph) -> KernelArena:
    """The calling thread's arena for ``csr`` (created on first use).

    Arenas hold no cross-search mutable state beyond caches, but handing
    each thread its own keeps the kernel safe under the engine's
    thread-pool batch runner without any locking.
    """
    registry = getattr(_thread_arenas, "registry", None)
    if registry is None:
        registry = _thread_arenas.registry = weakref.WeakKeyDictionary()
    arena = registry.get(csr)
    if arena is None:
        arena = registry[csr] = KernelArena(csr)
    return arena


# ----------------------------------------------------------------------
# Network-level conveniences
# ----------------------------------------------------------------------
def sssp(network, source: int, need_predecessors: bool = True, reverse: bool = False):
    """Full single-source sweep over ``network``'s snapshot (built if absent)."""
    return arena_for(network.ensure_csr()).sssp(
        source, need_predecessors=need_predecessors, reverse=reverse
    )


def point_to_point(network, source: int, target: int):
    """Early-terminating point-to-point search over the network snapshot."""
    return arena_for(network.ensure_csr()).point_to_point(source, target)


def many_to_many(
    network, sources: Sequence[int], need_predecessors: bool = False, reverse: bool = False
):
    """Batched full sweeps over the network snapshot, in source order."""
    return arena_for(network.ensure_csr()).many_to_many(
        sources, need_predecessors=need_predecessors, reverse=reverse
    )
