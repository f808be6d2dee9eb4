"""Array-based shortest path kernel over :class:`~repro.network.csr.CSRGraph`.

Every shortest path search in the package runs here, over flat int-indexed
buffers -- one list index per operation -- with *full* single-source sweeps
routed through ``scipy.sparse.csgraph.dijkstra`` (a compiled CSR Dijkstra)
and an exact numpy reconstruction of everything the textbook dict Dijkstra
reports.

**Bit-identity contract.**  Every full sweep is bit-identical to the dict
implementation's (kept as the test oracle ``tests/oracles/dijkstra.py``):
identical IEEE-754 distance values, identical predecessor choices on
equal-distance ties, identical settled counts, and an identical node
discovery order (the dict implementation's ``distances`` insertion order).
A point-to-point search reports what its callers read -- the distance,
the path and the settled count -- and, on every node the dict loop settled
before stopping, the same label and predecessor; the loop's tentative
frontier labels are not reproduced.  Two mechanisms deliver this:

* Full sweeps (:meth:`KernelArena.sssp`, :meth:`KernelArena.many_to_many`)
  and point-to-point searches -- over the snapshot's own edges, masked to
  an ``allowed`` node set (the EB/NR clients' search) or over a search's
  own ``weights`` with ``inf`` on the edges it drops (ArcFlag's flagged
  edges, HiTi's query overlay) -- take the distance labels from scipy
  (relaxation order cannot change the converged float values) and derive
  everything else from them: every weight being strictly positive and
  above its label's precision (the network's one weight rule, which the
  snapshot's constructor checks), the settle order provably equals
  sorting reachable nodes by ``(distance, node id)``.  A point-to-point
  search's settled count is its target's rank in that order plus one.
  Every predecessor comes from :meth:`KernelArena._tree_rows`, one array
  pass over a few rows' labels: each node's achieving in-edge, and on a
  tie the tail that settled first.  A single full sweep's discovery order
  -- which SPQ's majority votes read -- comes from
  :meth:`KernelArena._discovery`.  A node mask weights every edge whose
  head lies outside the set ``inf`` in the sweep, so those heads stay
  unreached and the edges never achieve; a search's own weights reach the
  tree as they are, so an edge it dropped never achieves either, on a tie
  neither.  A result derives ``pred`` only when it is read, and a path
  does not need it: :meth:`KernelResult.path_to` walks back over in-edges
  on the converged labels, reading the snapshot's flat array buffers
  rather than its tuple rows: in a serving worker the arrays are one copy
  in the segment every worker maps, while the tuple rows are built per
  process on first use (2.6 MiB both ways at 4,907 nodes) and a worker
  that never reads them never builds them.
* Multi-target searches (:meth:`KernelArena.multi_target`, or
  :meth:`KernelArena.search` given ``targets``) run a **faithful
  simulation** of the dict loop, :func:`row_search`, over the snapshot's
  ``(index, weight)`` rows -- same heap entries (index order is id order),
  same relaxation order, same termination tests -- so even the tentative
  labels left behind by an early stop match.  Landmark's A* runs the same
  loop: ``potential=`` turns it into A*, bit-identical to its dict
  reference in ``tests/oracles/astar.py``.
  Searches over a small graph that is not a snapshot -- a memory-bound
  client's received region and its super-edge overlay -- call
  :func:`row_search` directly on local rows whose positions follow
  ascending id (:func:`adjacency_rows` builds them from a dict), so they
  too break ties as the dict loop does (``tests/oracles/memory_bound.py``).

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
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as _np
from scipy.sparse import csr_matrix as _csr_matrix
from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

from repro.network.algorithms.paths import PathResult
from repro.network.csr import CSRGraph

__all__ = ["KernelArena", "KernelResult", "adjacency_rows", "arena_for", "row_search"]

_INF = float("inf")

#: Batched scipy sweeps are chunked so the dense ``sources x nodes``
#: distance matrix stays bounded (~8 MB of float64 per chunk at 1M nodes).
_BATCH_CHUNK = 64

#: Rows per predecessor pass (:meth:`KernelArena._tree_rows`).  Its
#: temporaries are a few ``rows x edges`` arrays (3.7 MB of float64 each at
#: full Germany's 58k edges); on a 2-vCPU VM, passes of 8 rows ran faster
#: than 16 or more from 1,402 to 7,217 nodes, as the arrays stay
#: cache-sized.
_TREE_CHUNK = 8


class KernelResult:
    """One search's labels, indexed by node *index* (see ``csr.ids``).

    ``dist``/``pred`` cover every node (unreached entries are ``inf`` /
    ``-1``); ``order`` lists the discovered indexes in the dict
    implementation's ``distances`` insertion order, and is ``None`` for
    distance-only sweeps and compiled point-to-point searches (no consumer
    observes their ordering).  The buffers are owned by the result --
    arenas never reclaim them.

    A compiled result carries scipy's converged labels (``dist_np``).  One
    that reports a tree -- a full sweep with predecessors or a
    point-to-point search -- also carries ``tree``, the ``(arena, reverse,
    weights)`` that derives ``pred`` on its first read
    (:meth:`KernelArena._tree_rows`); :meth:`path_to` walks back over
    in-edges instead and never derives it (``weights``: the search's own,
    or ``None``).  A point-to-point result's
    labels are the converged ones everywhere: on the nodes the dict loop
    settled (the target and every node ahead of it in settle order) they
    and the predecessors equal the loop's; the loop's tentative frontier
    labels are not kept, as nothing reads them.
    """

    __slots__ = (
        "csr",
        "source",
        "source_index",
        "dist_np",
        "_dist",
        "_pred",
        "order",
        "settled",
        "_tree",
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
        tree=None,
    ) -> None:
        self.csr = csr
        self.source = source
        self.source_index = csr.index_of[source]
        #: The labels as a float64 vector when the sweep came off scipy
        #: (``None`` on the faithful loop) -- vectorized consumers index it
        #: without re-boxing the list.
        self.dist_np = dist_np
        self._dist = dist
        self._pred = pred
        self.order = order
        self.settled = settled
        self._tree = tree

    # -- reads ---------------------------------------------------------
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

    @property
    def pred(self) -> Optional[List[int]]:
        """Predecessor per index (``-1`` at the source and unreached
        nodes), or ``None`` when the search reports no tree."""
        if self._pred is None and self._tree is not None:
            arena, reverse, weights = self._tree
            row = _np.empty((1, len(self.dist_np)), dtype=_np.int64)
            arena._tree_rows(
                self.dist_np[None, :], [self.source_index], row, reverse, weights
            )
            self._pred = row[0].tolist()
        return self._pred

    def distance_to(self, node_id: int) -> float:
        """Distance label of ``node_id`` (``inf`` when unreached/unknown)."""
        index = self.csr.index_of.get(node_id)
        if index is None:
            return _INF
        if self.dist_np is not None:
            return float(self.dist_np[index])
        return self._dist[index]

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
        """Reached node indexes: discovery order when tracked (every
        faithful result), else index order off the compiled labels."""
        if self.order is not None:
            return self.order
        return _np.flatnonzero(_np.isfinite(self.dist_np)).tolist()

    def distances_dict(self) -> Dict[int, float]:
        """``{node_id: distance}`` over reached nodes.

        With ``order`` tracked the key order is the dict implementation's
        insertion order; other results use index (= id) order -- equal as
        a mapping, only iteration order differs.
        """
        ids = self.csr.ids
        dist = self.dist
        return {ids[i]: dist[i] for i in self.reached_indexes()}

    def predecessors_dict(self) -> Dict[int, Optional[int]]:
        """``{node_id: predecessor_id}`` over reached nodes (source maps
        to ``None``), in :meth:`distances_dict`'s key order."""
        pred = self.pred
        if pred is None:
            raise ValueError("predecessors were not requested for this search")
        ids = self.csr.ids
        source_index = self.source_index
        return {
            ids[i]: None if i == source_index else ids[pred[i]]
            for i in self.reached_indexes()
        }

    def path_to(self, node_id: int) -> List[int]:
        """Node-id path from the source (empty when unreached).

        A compiled result walks back over in-edges (:meth:`_walk_back`);
        a faithful one follows ``pred``.
        """
        index = self.csr.index_of.get(node_id)
        if self._tree is not None:
            if index is None or self.dist_np[index] == _INF:
                return []
            path = self._walk_back(index, *self._tree)
        else:
            pred = self._pred
            if pred is None:
                raise ValueError("predecessors were not requested for this search")
            if index is None or self._dist[index] == _INF:
                return []
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

    def _walk_back(self, index: int, arena, reverse: bool, weights) -> List[int]:
        """The tree path to reached node ``index``, target first, read off
        the converged labels.

        A node's predecessor is its first-achieving relaxation: among
        in-edges ``(u, w)`` with ``dist[u] + w == dist[v]`` (every such
        ``u`` settled earlier, weights being positive), the one whose tail
        settled first -- the least ``(dist[u], u)``, as
        :meth:`KernelArena._tree_rows` picks it.  The in-edges come from the
        snapshot's flat array buffers, which serving workers share through
        the mapped segment, not from
        :attr:`~repro.network.csr.CSRGraph.rev_adj`, whose tuples each
        process would build for itself on first read.  A search's own
        ``weights`` are gathered in in-edge order (:meth:`_Accel.twin`), so
        an edge it dropped never achieves, on a tie neither.
        """
        csr = self.csr
        if reverse:
            offsets, tails, in_weights = csr.fwd_offsets, csr.fwd_targets, csr.fwd_weights
        else:
            offsets, tails, in_weights = csr.rev_offsets, csr.rev_targets, csr.rev_weights
        if weights is not None:
            in_weights = memoryview(weights.take(arena._accel().twin(csr, reverse)))
        labels = memoryview(self.dist_np)
        source_index = self.source_index
        path = [index]
        v = index
        while v != source_index:
            dv = labels[v]
            best = -1
            best_d = _INF
            for j in range(offsets[v], offsets[v + 1]):
                u = tails[j]
                du = labels[u]
                if du + in_weights[j] == dv and (du < best_d or (du == best_d and u < best)):
                    best = u
                    best_d = du
            if best < 0:  # pragma: no cover - converged labels always chain
                return []
            v = best
            path.append(v)
        return path


class _Accel:
    """Cached numpy/scipy views of one snapshot's arrays.

    The scipy matrices reference the CSR weight buffers directly (``numpy``
    ``frombuffer`` views), so :meth:`CSRGraph.patch_weight` keeps them
    fresh for free; the integer structure (offsets/targets, edge source and
    adjacency-position arrays used by the reconstruction) never changes for
    a frozen snapshot.
    """

    __slots__ = ("matrices", "edge_arrays", "transposes", "twins")

    def __init__(self, csr: CSRGraph) -> None:
        # Each built lazily, per direction (indexed by ``reverse``): the
        # matrix on its first sweep, the others for trees and walks.
        self.matrices = [None, None]
        self.edge_arrays = [None, None]
        self.transposes = [None, None]
        self.twins = [None, None]

    def matrix(self, csr: CSRGraph, reverse: bool):
        """One direction's scipy matrix over the snapshot's buffers."""
        matrix = self.matrices[reverse]
        if matrix is None:
            offsets, targets, weights = (
                (csr.rev_offsets, csr.rev_targets, csr.rev_weights)
                if reverse
                else (csr.fwd_offsets, csr.fwd_targets, csr.fwd_weights)
            )
            indptr = _np.frombuffer(offsets, dtype=_np.int64).astype(_np.int32)
            indices = _np.frombuffer(targets, dtype=_np.int64).astype(_np.int32)
            data = _np.frombuffer(weights, dtype=_np.float64)
            # scipy treats duplicate (row, col) entries as parallel edges, which
            # matches RoadNetwork's min-parallel-edge shortest path semantics.
            n = csr.num_nodes
            matrix = self.matrices[reverse] = _csr_matrix((data, indices, indptr), shape=(n, n))
        return matrix

    def edges(self, csr: CSRGraph, reverse: bool):
        """``(tails, heads, weights, adjacency positions)`` of one
        direction's edges, in its edge order."""
        cached = self.edge_arrays[reverse]
        if cached is None:
            e_src, e_dst = csr.edge_endpoints(reverse)
            offsets = csr.rev_offsets if reverse else csr.fwd_offsets
            weights = csr.rev_weights if reverse else csr.fwd_weights
            e_w = _np.frombuffer(weights, dtype=_np.float64)
            e_adjpos = _np.arange(len(e_src)) - _np.frombuffer(offsets, dtype=_np.int64)[e_src]
            cached = self.edge_arrays[reverse] = (e_src, e_dst, e_w, e_adjpos)
        return cached

    def twin(self, csr: CSRGraph, reverse: bool) -> _np.ndarray:
        """For each entry of the opposite direction's arrays (the in-edges
        a walk back reads), the position of the same edge in this
        direction's.  Parallel edges pair up in position order; any pairing
        among them offers a walk the same ``(tail, weight)`` candidates."""
        cached = self.twins[reverse]
        if cached is None:
            # Mine run tail -> head; theirs list each edge from its head.
            tails, heads = csr.edge_endpoints(reverse)
            their_heads, their_tails = csr.edge_endpoints(not reverse)
            cached = self.twins[reverse] = _np.empty(len(tails), dtype=_np.int64)
            cached[_np.lexsort((their_tails, their_heads))] = _np.lexsort((tails, heads))
        return cached

    def transpose(self, csr: CSRGraph, reverse: bool):
        """Head-grouped view of one direction's edge list.

        ``(perm, starts, counts)``: ``perm`` stably permutes the edge
        arrays so entries sharing a head node ``e_dst`` are contiguous,
        ``starts``/``counts`` delimit each head's run.  Per-head minima
        (the discovery keys) then reduce with one ``np.minimum.reduceat``
        pass instead of the unbuffered ``np.minimum.at`` scatter.
        """
        cached = self.transposes[reverse]
        if cached is None:
            _, e_dst, _, _ = self.edges(csr, reverse)
            n = csr.num_nodes
            counts = _np.bincount(e_dst, minlength=n)
            starts = _np.zeros(n, dtype=_np.int64)
            _np.cumsum(counts[:-1], out=starts[1:])
            perm = _np.argsort(e_dst, kind="stable")
            cached = self.transposes[reverse] = (perm, starts, counts)
        return cached


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
        # Per direction (indexed by ``reverse``): the matrix masked sweeps
        # rewrite, built on first use (see ``_sweep``).
        self._masked = [None, None]

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

        ``need_predecessors=False`` leaves out the tree -- the fastest path
        for the many consumers that only read distance labels.  With it, the
        result carries the discovery order (:meth:`_discovery`) and derives
        ``pred`` on first read.
        """
        source_index = self._source_index(source)
        dist = self._sweep(source_index, reverse)
        settled = int(_np.count_nonzero(_np.isfinite(dist)))
        if not need_predecessors:
            return KernelResult(self.csr, source, None, None, None, settled, dist_np=dist)
        order = self._discovery(dist, source_index, reverse)
        return KernelResult(
            self.csr, source, None, None, order, settled, dist_np=dist,
            tree=(self, reverse, None),
        )

    def point_to_point(
        self,
        source: int,
        target: int,
        allowed: Optional[Iterable[int]] = None,
        reverse: bool = False,
        weights: Optional[_np.ndarray] = None,
        potential: Optional[Sequence[float]] = None,
    ) -> KernelResult:
        """Early-terminating point-to-point search.

        ``allowed`` restricts the search to a node subset -- the relaxation
        skips any neighbor outside it, which is exactly equivalent to (and
        replaces) materializing the induced subgraph first, as the EB/NR
        clients used to.  Both endpoints must belong to the subset.

        ``weights`` (float64, one per edge of the direction, in CSR order)
        replace the snapshot's for this search; an edge weighing ``inf`` is
        dropped (ArcFlag's unflagged edges, HiTi's left-out overlay edges).
        Either restriction runs one compiled sweep (:meth:`_p2p`).

        ``potential`` is a per-index lower bound on the remaining distance
        to ``target`` (Landmark's ALT bound): A* on the faithful loop, over
        the snapshot's own edges only.
        """
        source_index = self._source_index(source)
        target_index = self.csr.index_of.get(target)
        if target_index is None:
            raise KeyError(f"unknown target node {target}")
        if potential is not None:
            if allowed is not None or weights is not None:
                raise ValueError("a potential searches the snapshot's own edges only")
            return self._faithful(
                source_index, source, target_index=target_index, reverse=reverse,
                potential=potential,
            )
        sweep = weights
        if allowed is not None:
            mask = self._allowed_mask(allowed)
            if not mask[source_index]:
                raise KeyError(f"source node {source} is outside the allowed set")
            if not mask[target_index]:
                raise KeyError(f"target node {target} is outside the allowed set")
            # An edge stays in the search when its head is allowed.
            accel = self._accel()
            matrix = accel.matrix(self.csr, reverse)
            keep = mask.view(_np.bool_).take(matrix.indices)
            sweep = _np.where(keep, matrix.data if weights is None else weights, _INF)
        return self._p2p(source, source_index, target_index, reverse, sweep, weights)

    def _allowed_mask(self, allowed: Iterable[int]):
        """A 0/1 byte per node index (a uint8 vector), set for the
        ``allowed`` ids.

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
        return mask

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
        if remaining is None:
            return self._p2p(source, source_index, target_index, reverse)
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
        dist: _np.ndarray,
        pred: Optional[_np.ndarray],
        reverse: bool = False,
    ) -> None:
        """Batched full sweeps, written as rows the caller owns.

        Row ``i`` of ``dist`` (float64, one row per source, one column per
        node index) receives the labels of ``sources[i]``; ``pred`` (int64,
        the same shape) receives its predecessors, ``-1`` at the source and
        unreached nodes, or is ``None`` for distance-only callers.  The
        labels of up to ``_BATCH_CHUNK`` sources come from one scipy call,
        and their predecessor rows from one array pass over the chunk
        (:meth:`_tree_rows`).
        """
        indexes = [self._source_index(source) for source in sources]
        for start in range(0, len(indexes), _BATCH_CHUNK):
            chunk = indexes[start : start + _BATCH_CHUNK]
            rows = slice(start, start + len(chunk))
            dist[rows] = self._sweep(chunk, reverse)
            if pred is not None:
                self._tree_rows(dist[rows], chunk, pred[rows], reverse)

    def _tree_rows(self, dist, source_indexes, pred, reverse: bool, weights=None) -> None:
        """Predecessor rows from converged labels, in one array pass per
        ``_TREE_CHUNK`` rows: the one tree derivation of every compiled
        search (a batch's rows, a single sweep's or point-to-point
        search's ``pred``).

        Under strictly positive weights the dict heap settles reachable
        nodes in ``(distance, index)`` order, and a node's predecessor is
        the tail of its first *achieving* in-edge (``dist[tail] + w ==
        dist[head]``, head reached) in that order.  Every achieving edge
        scatters its tail onto its head; where one head's edges wrote
        different tails -- an equal-distance tie -- the head takes the
        least ``(dist[tail], tail)`` among them.  Labels are compared with
        ``inf`` turned into ``nan``, which equals nothing, so unreached
        heads and tails never achieve; so do the edges a masked sweep
        weighted ``inf``, whose heads it left unreached.  A point-to-point
        search settles every achieving tail of a settled node before it,
        so its settled nodes' rows equal the stopped loop's.  ``pred``
        (rows aligned with ``dist``) is overwritten: ``-1`` at each source
        and at unreached nodes.  Bit-identical to the faithful loop's
        predecessors.

        ``weights`` (float64, one per edge of the direction in CSR order)
        replace the snapshot's: a search's own (``inf`` edges never
        achieve), or those before an in-place patch.
        """
        n = self.num_nodes
        e_src, e_dst, e_w, _ = self._accel().edges(self.csr, reverse)
        if weights is not None:
            e_w = weights
        # Flat (row, edge) position -> its head's flat (row, node) cell and
        # its tail, for a full-height pass; a shorter last pass uses a prefix.
        height = min(_TREE_CHUNK, len(dist))
        cells = (_np.arange(height, dtype=_np.int64)[:, None] * n + e_dst).ravel()
        tails = _np.tile(e_src, height)
        for start in range(0, len(dist), _TREE_CHUNK):
            rows = slice(start, start + _TREE_CHUNK)
            labels = _np.where(_np.isfinite(dist[rows]), dist[rows], _np.nan)
            height = len(labels)
            relax = labels.take(e_src, axis=1)
            relax += e_w
            achieving = _np.flatnonzero(relax == labels.take(e_dst, axis=1))
            del relax
            cell = cells[achieving]
            tail = tails[achieving]
            block = _np.full(height * n, -1, dtype=_np.int64)
            block[cell] = tail
            overwritten = block[cell] != tail
            if overwritten.any():
                tied = _np.zeros(height * n, dtype=bool)
                tied[cell[overwritten]] = True
                tied = tied[cell]
                cell, tail = cell[tied], tail[tied]
                tail_dist = labels.reshape(-1)[cell - cell % n + tail]
                heads, group = _np.unique(cell, return_inverse=True)
                least = _np.full(len(heads), _INF)
                _np.minimum.at(least, group, tail_dist)
                first = tail_dist == least[group]
                best = _np.full(len(heads), n, dtype=_np.int64)
                _np.minimum.at(best, group[first], tail[first])
                block[heads] = best
            sources = _np.asarray(source_indexes[rows], dtype=_np.int64)
            block[_np.arange(height, dtype=_np.int64) * n + sources] = -1
            pred[rows] = block.reshape(height, n)

    # ------------------------------------------------------------------
    # Compiled sweeps: distances from scipy, the tree derived from them
    # ------------------------------------------------------------------
    def _sweep(self, indices, reverse: bool, weights=None):
        """scipy's converged labels from one source index (a vector) or a
        list of them (one row each).

        ``weights`` (one per edge of the direction's matrix) become the
        ``data`` of the arena's own copy of the matrix for this sweep.
        """
        accel = self._accel()
        matrix = accel.matrix(self.csr, reverse)
        if weights is not None:
            masked = self._masked[reverse]
            if masked is None:
                masked = self._masked[reverse] = _csr_matrix(
                    (matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape
                )
            masked.data = weights
            matrix = masked
        return _scipy_dijkstra(matrix, directed=True, indices=indices)

    def _discovery(self, dist, source_index: int, reverse: bool) -> List[int]:
        """A full sweep's discovery order -- the dict loop's ``distances``
        insertion order -- as an index list, source first.

        Under strictly positive weights the dict heap settles reachable
        nodes in ``(distance, index)`` order and relaxes each settled
        node's edges in adjacency order, so a node is discovered by its
        least ``(tail rank, adjacency position)`` in-edge: one ``reduceat``
        pass over the edge list gives every node's key (SPQ's majority
        votes read this order).
        """
        n = self.num_nodes
        accel = self._accel()
        e_src, _, _, e_adjpos = accel.edges(self.csr, reverse)
        perm, starts, counts = accel.transpose(self.csr, reverse)
        reachable = _np.flatnonzero(_np.isfinite(dist))
        settle = reachable[_np.lexsort((reachable, dist[reachable]))]
        # Unreached tails rank past every settled one, so their edges' keys
        # reach the sentinel and never discover anything.
        rank = _np.full(n, n + 1, dtype=_np.int64)
        rank[settle] = _np.arange(len(settle), dtype=_np.int64)
        stride = len(e_src) + 1
        sentinel = (n + 1) * stride
        ekey = rank[e_src] * stride + e_adjpos
        key = _segment_min(ekey[perm], starts, counts, sentinel)
        key[source_index] = sentinel
        found = _np.flatnonzero(key < sentinel)
        return [source_index] + found[_np.argsort(key[found])].tolist()

    def _p2p(
        self, source: int, source_index: int, target_index: int, reverse: bool,
        sweep=None, weights=None,
    ) -> KernelResult:
        """Compiled point-to-point search: one scipy sweep over ``sweep``
        weights (see :meth:`_sweep`), its tree over ``weights`` -- unmasked,
        as a node mask drops only edges into nodes left unreached, which
        never achieve.  The converged labels answer the query;
        the settled count is the target's settle rank plus one, counted
        without sorting: the heap settles reachable nodes in ``(distance,
        index)`` order, so the rank is the count of nodes strictly ahead in
        that order (unreached entries are ``inf`` and never compare ahead
        of a finite label).  An unreachable target exhausts the reachable
        set.
        """
        dist = self._sweep(source_index, reverse, sweep)
        target_dist = dist[target_index]
        if _np.isfinite(target_dist):
            settled = 1 + int(
                _np.count_nonzero(dist < target_dist)
                + _np.count_nonzero(dist[:target_index] == target_dist)
            )
        else:
            settled = int(_np.count_nonzero(_np.isfinite(dist)))
        return KernelResult(
            self.csr, source, None, None, None, settled, dist_np=dist,
            tree=(self, reverse, weights),
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
        reverse: bool = False,
        potential: Optional[Sequence[float]] = None,
    ) -> KernelResult:
        csr = self.csr
        rows = csr.rev_adj if reverse else csr.fwd_adj
        return KernelResult(
            csr,
            source,
            *row_search(rows, csr.ids, source_index, target_index, remaining, potential),
        )


# ----------------------------------------------------------------------
# The dict Dijkstra's loop over (index, weight) rows
# ----------------------------------------------------------------------
def row_search(
    rows: Sequence[Sequence[Tuple[int, float]]],
    ids: Sequence[int],
    source_index: int,
    target_index: Optional[int] = None,
    remaining: Optional[set] = None,
    potential: Optional[Sequence[float]] = None,
) -> Tuple[List[float], List[int], List[int], int]:
    """The textbook dict Dijkstra, simulated over ``(index, weight)`` rows.

    ``rows[u]`` lists node ``u``'s out-edges in adjacency order and
    ``ids[u]`` is its id, ascending in ``u``, so a ``(distance, index)``
    heap breaks ties exactly as the dict loop's ``(distance, id)`` heap:
    same heap entries, same relaxation order, same termination tests.  The
    search stops after settling ``target_index``, or once every id in
    ``remaining`` (a set the search consumes) has settled; ``potential``
    (a per-index lower bound on the remaining distance) turns it into A*.

    The rows may be a snapshot's own (:class:`KernelArena`'s multi-target
    and A* searches) or a small graph's local rows (a memory-bound region,
    a client's super-edge overlay).  Returns ``(dist, pred, order,
    settled)``: labels and predecessors per index (``inf``/``-1`` where
    unreached), discovery order and the settled count.
    """
    n = len(rows)
    dist = [_INF] * n
    pred = [-1] * n
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
        done = bytearray(n)
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
            for v, w in rows[u]:
                nd = d + w
                if nd < dist[v]:
                    if dist[v] == _INF:
                        append(v)
                    dist[v] = nd
                    pred[v] = u
                    push(heap, (nd + potential[v], v))
        return dist, pred, order, settled
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
        for v, w in rows[u]:
            nd = d + w
            if nd < dist[v]:
                if dist[v] == _INF:
                    append(v)
                dist[v] = nd
                pred[v] = u
                push(heap, (nd, v))
    return dist, pred, order, settled


def adjacency_rows(
    adjacency: Mapping[int, Sequence[Tuple[int, float]]], extra_nodes: Iterable[int] = ()
) -> Tuple[List[int], Dict[int, int], List[List[Tuple[int, float]]]]:
    """``(ids, index_of, rows)`` of a small ``{id: [(id, weight), ...]}`` graph.

    Positions follow ascending id, so :func:`row_search` over the rows
    breaks ties as a dict Dijkstra over ``adjacency`` does, and each row
    keeps its list's order.  Every edge target must be a key of
    ``adjacency`` or one of ``extra_nodes``.
    """
    ids = sorted(set(adjacency).union(extra_nodes))
    index_of = {node: index for index, node in enumerate(ids)}
    get = adjacency.get
    rows = [[(index_of[v], w) for v, w in get(node, ())] for node in ids]
    return ids, index_of, rows


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
