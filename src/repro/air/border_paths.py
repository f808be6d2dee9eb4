"""Shared EB/NR server-side pre-computation over border nodes.

Both EB and NR pre-compute the shortest paths between border nodes of the
partitioned network (paper Sections 4.1 and 5; the paper notes their
pre-computation cost is identical).  From those paths this module derives:

* the minimum and maximum shortest path distance between every ordered pair
  of regions (EB's array ``A``),
* the set of *cross-border* nodes -- nodes appearing on at least one
  pre-computed path -- used to split each region's data into a cross-border
  and a local segment, and
* for every ordered region pair, the set of regions traversed by any
  pre-computed shortest path between border nodes of those regions (NR's
  region sets).

The paper defines the pre-computed set ``S`` over border-node pairs from
*different* regions.  We additionally include pairs of border nodes of the
*same* region so that queries whose source and destination fall in one region
remain covered; this only grows the index conservatively (documented
deviation, see DESIGN.md).

Everything per source lives in one columnar block (:class:`_Block`), one row
per border source in roster order: the full distance/predecessor labels over
the CSR snapshot, and the columns derived from each source's shortest path
tree -- the cross-border nodes, the finite border-pair count, the min/max
distance to every target region and the regions its paths there traverse.
One function, :meth:`BorderPathPrecomputation._fold`, derives those columns
for any set of rows, blocks of sources at a time: an upward walk from each
row's border targets marks their ancestors (the cross-border nodes), and
pointer doubling over those cells alone gives each target's traversed
regions -- on a build, a repair, and a restore alike.  The published
aggregates are grouped reductions over the block
(:meth:`~BorderPathPrecomputation._aggregate`).

The serialized state keeps only the ``dist`` labels of the block: every
weight being strictly positive (the network's one weight rule), the
kernel's predecessors are a function of the distances
(:meth:`KernelArena._tree_rows`), and every repair keeps them so.  The
first block use of a restored instance derives ``pred`` again, over the
weights the labels were computed on, and folds every row.  That use is
usually a refresh, which comes after the network's weights were patched in
place, so it derives over the current weights with the batch's changed
edges set back to their old weights; a block read naming no batch, or a
batch that does not undo the network's moves, raises
:class:`StaleLabelsError` instead of deriving a wrong tree.

:meth:`BorderPathPrecomputation.refresh` keeps this exact after a weight
change batch:

* :meth:`~BorderPathPrecomputation.affected_sources` decides -- exactly,
  from the cached labels and the old/new weights -- which rows a batch can
  touch, vectorized over the block's distance matrix;
* the affected rows' labels are repaired together by a batch
  Ramalingam-Reps-style repair (:meth:`~BorderPathPrecomputation._repair_rows`)
  that walks, in array passes over every affected row at once, only the
  cells whose distance (or tie-broken predecessor) actually moves; and
* only the rows whose repaired tree moved a border target re-fold, after
  which the aggregates re-reduce.

Unaffected rows provably have bit-identical labels, and the repair
reconverges to the same unique float fixed point with the same canonical
tie-breaks as the kernel, so the refreshed state equals a from-scratch
rebuild bit for bit.  The per-row, queue-based repair is the test oracle
(``tests/oracles/border_paths.py``).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.network.algorithms import kernel
from repro.network.algorithms.paths import INFINITY
from repro.network.delta import WeightChange
from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning

__all__ = ["BorderPathPrecomputation", "ServingRestoreError", "StaleLabelsError"]

#: Sources :meth:`BorderPathPrecomputation._fold` derives per pass; its
#: walk marks hold this many rows of every node at once.  Measured flat
#: between 16 and 48 rows on 1k-5k-node workload networks and on full
#: Germany; more rows cost cache misses, fewer cost walk waves.
_FOLD_BLOCK = 32


def _region_words(regions: int) -> int:
    """uint64 words of one region bitmask."""
    return max(1, -(-regions // 64))


def _region_bits(masks: np.ndarray, regions: int) -> np.ndarray:
    """Unpack ``(..., words)`` uint64 region masks into ``(..., regions)`` 0/1s."""
    octets = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, bitorder="little")[..., :regions]


class _Roster(NamedTuple):
    """Per-snapshot arrays every fold and reduction shares."""

    #: CSR index of each roster node -- the source of each block row.
    index: np.ndarray
    #: The regions owning border nodes, ascending, and the first roster
    #: position (equally, block row) of each.
    regions: np.ndarray
    starts: np.ndarray
    #: ``(nodes, words)`` uint64: each node's own region bit.
    words: np.ndarray
    #: CSR node ids in index order (ascending).
    ids: np.ndarray


def _distinct(cells: np.ndarray) -> np.ndarray:
    """``cells`` sorted, each once.  On the small frontiers a repair walks,
    a sort is several times faster than numpy 2's hashed ``np.unique``."""
    cells = np.sort(cells)
    keep = np.ones(len(cells), dtype=bool)
    np.not_equal(cells[1:], cells[:-1], out=keep[1:])
    return cells[keep]


class _Edges(NamedTuple):
    """One direction of a CSR snapshot as numpy views, read per *cell*:
    ``row * nodes + node``, a position of a flattened label block."""

    offsets: np.ndarray
    targets: np.ndarray
    weights: np.ndarray

    @classmethod
    def of(cls, offsets, targets, weights) -> "_Edges":
        return cls(
            np.frombuffer(offsets, dtype=np.int64),
            np.frombuffer(targets, dtype=np.int64),
            np.frombuffer(weights, dtype=np.float64),
        )

    def edges(self, cells: np.ndarray, nodes: int):
        """The edges of ``cells``' nodes: ``(owner, heads, weights)``, where
        ``owner`` indexes ``cells`` and ``heads`` are cells of the same
        rows."""
        starts = self.offsets[cells % nodes]
        counts = self.offsets[cells % nodes + 1] - starts
        owner = np.repeat(np.arange(len(cells)), counts)
        positions = np.arange(len(owner)) + np.repeat(
            starts - (np.cumsum(counts) - counts), counts
        )
        heads = cells[owner] - cells[owner] % nodes + self.targets[positions]
        return owner, heads, self.weights[positions]

    def least(self, cells: np.ndarray, dist: np.ndarray, nodes: int) -> np.ndarray:
        """Per cell, the least ``dist[neighbor] + w`` over its edges
        (``inf`` when it has none)."""
        owner, heads, weights = self.edges(cells, nodes)
        least = np.full(len(cells), INFINITY)
        np.minimum.at(least, owner, dist[heads] + weights)
        return least

    def canonical(self, cells: np.ndarray, dist: np.ndarray, nodes: int) -> np.ndarray:
        """Per cell, the neighbor (node index) of least ``(dist[u], u)``
        among its achieving edges (``dist[u] + w == dist[cell]``), ``-1``
        when the cell is unreached -- read over in-edges, the canonical
        predecessor."""
        owner, heads, weights = self.edges(cells, nodes)
        target = dist[cells][owner]
        tail = dist[heads]
        achieving = np.isfinite(target) & (tail + weights == target)
        owner, tail, heads = owner[achieving], tail[achieving], heads[achieving]
        least = np.full(len(cells), INFINITY)
        np.minimum.at(least, owner, tail)
        first = tail == least[owner]
        best = np.full(len(cells), nodes, dtype=np.int64)
        np.minimum.at(best, owner[first], heads[first] % nodes)
        best[best == nodes] = -1
        return best


@dataclasses.dataclass
class _Block:
    """Per-source columns, one row per border source in roster order.

    ``dist``/``pred`` are the kernel labels indexed by CSR node index
    (``inf`` / ``-1`` where unreached); the rest is derived from them by
    :meth:`BorderPathPrecomputation._fold`.  Per target region ``j``,
    ``reach[s, j]`` says whether source ``s`` reaches any border node of
    ``j`` other than itself, and only then are ``min_to``/``max_to`` finite
    and ``traversed[s, j]`` (a region bitmask in ``words`` uint64s) set.
    """

    dist: np.ndarray
    pred: np.ndarray
    #: Nodes on at least one pre-computed path from the source (by index).
    cross: np.ndarray
    finite_pairs: np.ndarray
    min_to: np.ndarray
    max_to: np.ndarray
    reach: np.ndarray
    traversed: np.ndarray

    @classmethod
    def over(cls, dist: np.ndarray, pred: np.ndarray, regions: int) -> "_Block":
        """A block over ``dist``/``pred`` labels, its derived columns unset."""
        sources, nodes = dist.shape
        return cls(
            dist=dist,
            pred=pred,
            cross=np.zeros((sources, nodes), dtype=bool),
            finite_pairs=np.zeros(sources, dtype=np.int64),
            min_to=np.full((sources, regions), INFINITY),
            max_to=np.full((sources, regions), -INFINITY),
            reach=np.zeros((sources, regions), dtype=bool),
            traversed=np.zeros(
                (sources, regions, _region_words(regions)), dtype=np.uint64
            ),
        )

    def copy(self) -> "_Block":
        return _Block(
            **{f.name: getattr(self, f.name).copy() for f in dataclasses.fields(self)}
        )


class StaleLabelsError(RuntimeError):
    """Restored border-path labels were read over weights they were not
    computed on.

    A restore keeps only the ``dist`` labels of a positive-weight snapshot
    and derives the predecessors from them on first use, which needs the
    weights the labels were computed on.  The first use after an in-place
    weight batch must therefore name the batch
    (:meth:`~BorderPathPrecomputation.refresh` and
    :meth:`~BorderPathPrecomputation.affected_sources` do).
    """


class ServingRestoreError(RuntimeError):
    """The pre-computation was restored for serving: it has no border-path block.

    A serving form (:meth:`BorderPathPrecomputation.serving_state`) carries
    only the aggregates queries read; the per-source block that
    :meth:`~BorderPathPrecomputation.refresh` repairs stays in the full
    state, which the artifact store keeps.
    """


class BorderPathPrecomputation:
    """All border-to-border shortest path information EB and NR need."""

    def __init__(self, network: RoadNetwork, partitioning: Partitioning) -> None:
        self.network = network
        self.partitioning = partitioning
        num_regions = partitioning.num_regions
        self.num_regions = num_regions

        #: ``min_distance[i][j]`` / ``max_distance[i][j]``: extreme shortest
        #: path distances from a border node of region i to one of region j.
        self.min_distance: List[List[float]] = []
        self.max_distance: List[List[float]] = []
        #: Nodes appearing on at least one pre-computed border-to-border path.
        self.cross_border_nodes: Set[int] = set()
        #: ``traversed_regions[(i, j)]``: regions crossed by any pre-computed
        #: shortest path from a border node of i to a border node of j.
        self.traversed_regions: Dict[Tuple[int, int], Set[int]] = {}
        self.num_border_pairs = 0
        self.precomputation_seconds = 0.0
        #: Backing storage of the :attr:`block` property; a restore keeps
        #: the serialized label bytes (:meth:`state`'s ``labels``) until a
        #: refresh needs the block, and a serving restore has neither.
        self._block: Optional[_Block] = None
        self._labels: Optional[Dict[str, bytes]] = None
        self._roster_arrays: Optional[_Roster] = None

        self._compute()

    def _compute(self) -> None:
        started = time.perf_counter()
        partitioning = self.partitioning
        #: ``(node, region)`` for every border node, in region-then-list order;
        #: border source ``s`` is row ``s`` of the block.
        self._all_border: List[Tuple[int, int]] = [
            (node, region)
            for region in range(self.num_regions)
            for node in partitioning.border_nodes(region)
        ]

        # One batched kernel sweep writes every border source's labels
        # straight into the block, then one fold derives every row's columns.
        csr = self.network.ensure_csr()
        sources = [source for source, _ in self._all_border]
        shape = (len(sources), csr.num_nodes)
        block = _Block.over(
            np.full(shape, INFINITY),
            np.full(shape, -1, dtype=np.int64),
            self.num_regions,
        )
        kernel.arena_for(csr).many_to_many(sources, block.dist, block.pred)
        self._block = block
        self._fold(np.arange(len(block.dist)))
        self._aggregate()
        self.precomputation_seconds = time.perf_counter() - started

    def _roster(self) -> _Roster:
        """The roster's arrays over the current snapshot, built once."""
        if self._roster_arrays is None:
            csr = self.network.ensure_csr()
            roster_regions = np.array(
                [region for _, region in self._all_border], dtype=np.int64
            )
            regions, starts = np.unique(roster_regions, return_index=True)
            node_region = self.partitioning.node_region
            width = _region_words(self.num_regions)
            words = np.zeros((len(node_region), width), dtype=np.uint64)
            words[np.arange(len(node_region)), node_region // 64] = np.left_shift(
                np.uint64(1), (node_region % 64).astype(np.uint64)
            )
            index_of = csr.index_of
            index = np.array(
                [index_of[node] for node, _ in self._all_border], dtype=np.int64
            )
            self._roster_arrays = _Roster(
                index, regions, starts, words, np.asarray(csr.ids, dtype=np.int64)
            )
        return self._roster_arrays

    def _fold(self, rows: np.ndarray) -> None:
        """Derive every column of ``rows`` from their ``dist``/``pred`` labels.

        Per block of :data:`_FOLD_BLOCK` sources, over *cells* ``row * nodes
        + node`` of the block's rows (``up`` maps a cell to its predecessor's
        cell):

        1. An upward walk from every finite border target marks the
           target's ancestors -- the row's cross-border nodes.  Each wave
           steps the frontier to its parents, drops cells already marked and
           keeps one copy of each cell, so every cell is visited once and
           the work grows with the cross cells, not with the block.
        2. The marked cells, renumbered into a compact range, take their
           region masks by pointer doubling (``mask |= mask[up]``, roots
           pointing at themselves) in ``ceil(log2 depth)`` passes.  Every
           ancestor of a marked cell is marked, so the compact parent array
           is closed.  A target's mask is then the set of regions its path
           traverses.
        3. ``reduceat`` over the region-ordered roster yields ``min_to``,
           ``max_to``, ``reach`` and ``traversed`` per target region.

        Scratch builds (whose labels the batched kernel sweep wrote straight
        into the block), repairs and restores (whose labels come from the
        serialized bytes, see :attr:`block`) all derive through here: it is
        the one producer of every derived column.
        """
        block = self._block
        index, regions, starts, words, _ids = self._roster()
        if not len(rows):
            return
        nodes = block.dist.shape[1]
        width = words.shape[1]
        for first in range(0, len(rows), _FOLD_BLOCK):
            chunk = np.asarray(rows[first : first + _FOLD_BLOCK])
            size = len(chunk)
            # Border targets with a finite label, the source's own entry
            # (roster position == row) excluded.
            target_dist = block.dist[chunk[:, None], index]
            valid = np.isfinite(target_dist)
            valid[np.arange(size), chunk] = False
            base = np.arange(0, size * nodes, nodes)
            up = (block.pred[chunk] + base[:, None]).ravel()
            targets = (base[:, None] + index)[valid]
            # A source is marked up front (when it reaches a target), so
            # the walk never steps past a root.
            rooted = valid.any(axis=1)
            sources = base[rooted] + index[chunk[rooted]]
            # ``slot``: -1 off the paths; on them, a wave's claim ticket,
            # then the cell's compact position.
            slot = np.full(size * nodes, -1, dtype=np.int64)
            slot[targets] = 0
            slot[sources] = 0
            frontier = targets
            while len(frontier):
                cells = up[frontier]
                cells = cells[slot[cells] < 0]
                ticket = np.arange(len(cells))
                slot[cells] = ticket
                frontier = cells[slot[cells] == ticket]
            on_path = (slot >= 0).reshape(size, nodes)
            cells = np.flatnonzero(on_path)
            slot[cells] = np.arange(len(cells))
            roots = slot[sources]
            up = slot[up[cells]]
            up[roots] = roots
            cell_nodes = cells - np.repeat(base, on_path.sum(axis=1))
            mask = np.take(words, cell_nodes, axis=0)
            # A chain is at most ``len(cells)`` deep, so the jumps reach
            # every root within ``bit_length`` passes; labels whose
            # predecessors hold a cycle never would.
            for _ in range(len(cells).bit_length() + 1):
                mask |= np.take(mask, up, axis=0)
                jumped = np.take(up, up)
                if np.array_equal(jumped, up):
                    break
                up = jumped
            else:
                raise RuntimeError("border-path predecessor labels hold a cycle")
            on_path[np.arange(size), index[chunk]] = True
            block.cross[chunk] = on_path
            block.finite_pairs[chunk] = valid.sum(axis=1)
            at = (chunk[:, None], regions)
            block.min_to[at] = np.minimum.reduceat(
                np.where(valid, target_dist, INFINITY), starts, axis=1
            )
            block.max_to[at] = np.maximum.reduceat(
                np.where(valid, target_dist, -INFINITY), starts, axis=1
            )
            block.reach[at] = np.logical_or.reduceat(valid, starts, axis=1)
            path_masks = np.zeros((size, len(index), width), dtype=np.uint64)
            path_masks[valid] = np.take(mask, slot[targets], axis=0)
            block.traversed[at] = np.bitwise_or.reduceat(path_masks, starts, axis=1)

    def _aggregate(self) -> None:
        """Reduce the block into the published aggregates.

        Rows are grouped by source region (the roster is region-ordered), so
        every aggregate is one ``reduceat`` over the rows: pure and
        order-free, which is why re-reducing after an incremental refresh
        yields exactly what a from-scratch build would.
        ``traversed_regions`` keeps the insertion order of a row-by-row
        fold: by source region, then by first row reaching each target.
        """
        n = self.num_regions
        block = self.block
        _index, regions, starts, _words, ids = self._roster()
        min_distance = np.full((n, n), INFINITY)
        max_distance = np.full((n, n), -INFINITY)
        self.traversed_regions = {}
        if len(starts):
            min_distance[regions] = np.minimum.reduceat(block.min_to, starts, axis=0)
            max_distance[regions] = np.maximum.reduceat(block.max_to, starts, axis=0)
            reach_rows, targets = np.nonzero(block.reach)
            group = np.searchsorted(starts, reach_rows, side="right") - 1
            keys, first = np.unique(group * n + targets, return_index=True)
            keys = keys[np.argsort(first, kind="stable")]
            group, targets = np.divmod(keys, n)
            traversed = np.bitwise_or.reduceat(block.traversed, starts, axis=0)
            pair, members = np.nonzero(_region_bits(traversed[group, targets], n))
            bounds = np.searchsorted(pair, np.arange(len(keys) + 1)).tolist()
            members = members.tolist()
            for k, key in enumerate(zip(regions[group].tolist(), targets.tolist())):
                self.traversed_regions[key] = set(members[bounds[k] : bounds[k + 1]])
        max_distance[max_distance == -INFINITY] = INFINITY
        self.min_distance = min_distance.tolist()
        self.max_distance = max_distance.tolist()
        self.cross_border_nodes = set(ids[block.cross.any(axis=0)].tolist())
        self.num_border_pairs = int(block.finite_pairs.sum())

    # ------------------------------------------------------------------
    # Build/serve split: separable state
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """The computed state as plain values (see :mod:`repro.serialize`).

        Two parts with different service lives: the published *aggregates*
        (what query processing reads) are stored eagerly, while of the
        per-source block (only :meth:`refresh` needs it) just the distance
        labels are written: ``labels["dist"]`` as little-endian float64
        bytes, one row per roster entry of ``all_border`` and one column per
        snapshot node.  A restore derives the rest on its first block use
        (:meth:`_materialize`); until then a warm start costs nothing per
        source.  A serving restore (:meth:`serving_state`) has no labels and
        writes ``labels`` as ``None``: its state is a serving form again.
        """
        if self._block is None:
            # Restored and never refreshed: the labels are still bytes (or,
            # for a serving restore, absent); re-publish them as-is.
            labels = self._labels
        else:
            labels = {"dist": np.ascontiguousarray(self._block.dist, dtype="<f8").tobytes()}
        flat_min = [value for row in self.min_distance for value in row]
        flat_max = [value for row in self.max_distance for value in row]
        trav_items: List[int] = []
        trav_offsets: List[int] = [0]
        trav_keys_i: List[int] = []
        trav_keys_j: List[int] = []
        for (i, j), regions in self.traversed_regions.items():
            trav_keys_i.append(i)
            trav_keys_j.append(j)
            trav_items.extend(sorted(regions))
            trav_offsets.append(len(trav_items))
        return {
            "all_border": {
                "nodes": [node for node, _ in self._all_border],
                "regions": [region for _, region in self._all_border],
            },
            "aggregates": {
                "min_distance": flat_min,
                "max_distance": flat_max,
                "cross_border_nodes": sorted(self.cross_border_nodes),
                "trav_keys_i": trav_keys_i,
                "trav_keys_j": trav_keys_j,
                "trav_offsets": trav_offsets,
                "trav_items": trav_items,
                "num_border_pairs": self.num_border_pairs,
            },
            "labels": labels,
            "seconds": self.precomputation_seconds,
        }

    @classmethod
    def from_state(
        cls, network: RoadNetwork, partitioning: Partitioning, state: Dict[str, Any]
    ) -> "BorderPathPrecomputation":
        """Reconstruct from :meth:`state` output without re-running Dijkstra.

        The published aggregates install directly; the label bytes stay
        undecoded until the first :meth:`refresh`/:meth:`affected_sources`
        call touches the block (serving queries never does).  The network's
        fingerprint is recorded as the labels': the first block use checks
        that the weights it derives over fingerprint as it.  ``state``
        may also be a :meth:`serving_state`: the restore then answers
        queries exactly alike, and :attr:`block`, :meth:`affected_sources`
        and :meth:`refresh` raise :class:`ServingRestoreError`.
        """
        self = object.__new__(cls)
        self.network = network
        self.partitioning = partitioning
        n = partitioning.num_regions
        self.num_regions = n
        roster = state["all_border"]
        self._all_border = list(zip(roster["nodes"], roster["regions"]))
        aggregates = state["aggregates"]
        flat_min = aggregates["min_distance"]
        flat_max = aggregates["max_distance"]
        self.min_distance = [flat_min[i * n : (i + 1) * n] for i in range(n)]
        self.max_distance = [flat_max[i * n : (i + 1) * n] for i in range(n)]
        self.cross_border_nodes = set(aggregates["cross_border_nodes"])
        self.traversed_regions = {
            (i, j): set(aggregates["trav_items"][start:end])
            for i, j, start, end in zip(
                aggregates["trav_keys_i"],
                aggregates["trav_keys_j"],
                aggregates["trav_offsets"],
                aggregates["trav_offsets"][1:],
            )
        }
        self.num_border_pairs = aggregates["num_border_pairs"]
        self._block = None
        self._labels = state["labels"]
        self._labels_fingerprint = None if self._labels is None else network.fingerprint()
        self._roster_arrays = None
        self.precomputation_seconds = state["seconds"]
        return self

    @staticmethod
    def serving_state(state: Dict[str, Any]) -> Dict[str, Any]:
        """:meth:`state` output without the refresh-only border-path block.

        Queries read only the aggregates, so a process that serves and never
        refreshes restores from this as well as from the full state.
        """
        return {**state, "labels": None}

    def _require_block(self) -> None:
        if self._block is None and self._labels is None:
            raise ServingRestoreError(
                "border-path pre-computation was restored for serving and has "
                "no border-path block; refresh from the full (store) artifact"
            )

    def shadow(self) -> "BorderPathPrecomputation":
        """A copy safe to :meth:`refresh` independently.

        The shadow owns a copy of the block (a refresh writes rows in
        place) and shares everything immutable: the roster arrays,
        still-undecoded label bytes, and the aggregates, which ``_aggregate``
        replaces rather than mutates.  This is what makes the engine's
        refresh cheap: the serving instance keeps answering from its
        pre-delta state while the shadow repairs.
        """
        clone = object.__new__(BorderPathPrecomputation)
        clone.__dict__.update(self.__dict__)
        if self._block is not None:
            clone._block = self._block.copy()
        return clone

    @property
    def block(self) -> _Block:
        """The per-source block.  A restore decodes its label bytes on first
        use, over a network its labels were computed on (:meth:`_materialize`
        with no batch), and derives every other column with one :meth:`_fold`
        of every row."""
        return self._materialize(())

    def _materialize(self, changes: Sequence[WeightChange]) -> _Block:
        """The block, decoded first if this is a restore, when the network
        now carries the weight ``changes`` on top of the labels' snapshot.

        :meth:`KernelArena._tree_rows` derives ``pred`` from ``dist`` over
        the labels' own weights: the current ones with every changed edge set
        back to its old weight.  If the network with the batch undone does
        not fingerprint as the one the labels were restored over, the tree
        would be derived over other weights, and the read raises
        :class:`StaleLabelsError` instead.
        """
        self._require_block()
        if self._block is None:
            network = self.network
            if network.fingerprint_before(changes) != self._labels_fingerprint:
                raise StaleLabelsError(
                    "the network's weights moved since the border-path labels "
                    "were restored, and the batch given does not undo them"
                )
            csr = network.ensure_csr()
            shape = (len(self._all_border), csr.num_nodes)
            dist = np.frombuffer(self._labels["dist"], dtype="<f8").reshape(shape).copy()
            pred = np.empty(shape, dtype=np.int64)
            kernel.arena_for(csr)._tree_rows(
                dist, self._roster().index, pred, False, csr.weights_before(changes)
            )
            self._block = _Block.over(dist, pred, self.num_regions)
            self._labels = None
            self._fold(np.arange(shape[0]))
        return self._block

    # ------------------------------------------------------------------
    # Incremental refresh
    # ------------------------------------------------------------------
    def affected_sources(self, changes: Sequence[WeightChange]) -> List[int]:
        """Rows of the border sources whose results a change batch can touch.

        For a source with cached distances ``d``, a weight change on edge
        ``(u, v)`` is relevant iff ``d(u) + min(old, new) <= d(v)`` (with
        ``u`` reached), which unfolds to

        * **decrease** (``new < old``): ``d(u) + new <= d(v)`` -- the cheaper
          edge creates (or ties) a shorter path through ``(u, v)``; or
        * **increase** (``new > old``): ``d(u) + old <= d(v)`` -- by the
          triangle inequality ``d(v) <= d(u) + old`` always holds, so this is
          the tightness test ``d(u) + old == d(v)``, i.e. "some shortest path
          uses ``(u, v)`` as its final hop into ``v``" (and any shortest path
          through the edge has such a prefix).

        Both tests include ties, which makes the unaffected set *provably*
        bit-identical under a re-run: the old distance labels remain a
        feasible potential and the old shortest path tree contains no changed
        edge, so Dijkstra's relaxations (and tie-breaks) replay unchanged.

        The test runs vectorized over the block's label matrix, one
        ``sources``-length column test per change (the per-source Python
        scan it replaces is the test oracle ``tests/oracles/border_paths.py``).
        """
        self._require_block()
        relevant = [change for change in changes if not change.is_noop]
        if not relevant:
            return []
        matrix = self._materialize(relevant).dist
        if not len(matrix):
            return []
        index_of = self.network.ensure_csr().index_of
        hit = np.zeros(len(matrix), dtype=bool)
        for change in relevant:
            u = index_of.get(change.source)
            v = index_of.get(change.target)
            if u is None or v is None:
                continue
            du = matrix[:, u]
            weight = min(change.old_weight, change.new_weight)
            # ``inf + w <= inf`` is true in IEEE arithmetic, but an
            # unreached tail can never carry a path -- mask it out.
            hit |= np.isfinite(du) & (du + weight <= matrix[:, v])
        return np.flatnonzero(hit).tolist()

    def refresh(self, changes: Sequence[WeightChange]) -> int:
        """Repair the affected border sources after a weight-change batch.

        Only valid for weight changes (the caller handles structural changes
        with a full rebuild: they can move borders).  The affected rows'
        labels are repaired in place, never from scratch
        (:meth:`_repair_rows`), and the rows whose border targets moved
        re-fold together.  Returns the number of affected sources; the
        published aggregates afterwards equal a from-scratch
        :class:`BorderPathPrecomputation` over the mutated network, bit for
        bit.
        """
        relevant = [change for change in changes if not change.is_noop]
        affected = self.affected_sources(relevant)
        if not affected:
            return 0
        csr = self.network.ensure_csr()
        index_of = csr.index_of
        repair_changes = [
            (
                index_of[change.source],
                index_of[change.target],
                change.old_weight,
                change.new_weight,
            )
            for change in relevant
            if change.source in index_of and change.target in index_of
        ]
        refold = self._repair_rows(np.array(affected, dtype=np.int64), repair_changes, csr)
        if len(refold):
            # Rows whose repair moved no border target keep their derived
            # columns: the fold inputs are unchanged, and so are the
            # published aggregates.
            self._fold(np.asarray(refold, dtype=np.int64))
            self._aggregate()
        return len(affected)

    def _repair_rows(
        self,
        rows: np.ndarray,
        changes: List[Tuple[int, int, float, float]],
        csr,
    ) -> np.ndarray:
        """Batch dynamic SSSP repair of ``rows``' labels (Ramalingam-Reps),
        every row at once, in place in the block; returns the rows whose
        derived columns must re-fold.

        Work is over *cells* -- ``row * nodes + node`` positions of the
        flattened block -- and each phase runs in waves, one array pass
        per wave over the current frontier's edges:

        * **Phase A** invalidates the subtree hanging off every *tree*
          edge whose weight increased (its nodes are the only ones whose
          distance can grow) and re-seeds each invalidated node from its
          best in-neighbor.
        * **Phase B** relaxes the out-edges of the re-seeded nodes and of
          every changed edge's tail, then of every cell whose label
          dropped, until none drops: a label-correcting search over the
          moving frontier only.
        * Canonical predecessors -- the least ``(dist[u], u)`` over
          achieving in-edges, exactly the kernel's "first achieving
          relaxation in settle order" -- are recomputed for every cell whose
          tree attachment could have changed: invalidated cells, changed
          edges' heads, moved cells and their out-neighbors.

        Bit-identity: every label is produced by the same ``dist[u] + w``
        float expression a scratch Dijkstra evaluates, and under strictly
        positive weights the converged labels are the unique fixed point of
        those expressions, whatever order the relaxations ran in -- so the
        repaired labels (and the tie-broken tree) equal a scratch sweep's
        exactly.

        Derive-skip: a border target's distance can only move if the border
        is itself a moved cell, and its predecessor chain can only change if
        the chain passes a flipped attachment -- which makes the border a
        new-tree descendant of a changed cell.  So a row re-folds only when
        the closure of its changed cells under new-tree children reaches a
        border node; otherwise every derived column of the row is
        bit-identical.
        """
        block = self.block
        n = block.dist.shape[1]
        dist = block.dist.view()
        pred = block.pred.view()
        dist.shape = pred.shape = (-1,)  # flat views; raises rather than copy
        fwd = _Edges.of(csr.fwd_offsets, csr.fwd_targets, csr.fwd_weights)
        rev = _Edges.of(csr.rev_offsets, csr.rev_targets, csr.rev_weights)
        base = rows * n
        tails = _distinct(np.array([u for u, _, _, _ in changes], dtype=np.int64))
        heads = _distinct(np.array([v for _, v, _, _ in changes], dtype=np.int64))

        def children(cells: np.ndarray) -> np.ndarray:
            """Cells whose predecessor is one of ``cells``' nodes."""
            owner, out, _ = fwd.edges(cells, n)
            return out[pred[out] == cells[owner] % n]

        # Phase A: the subtrees hanging off broken tree edges.  The
        # supporting-weight test uses the *pre-batch* weight (the delta's
        # coalesced first-old), because the cached labels were computed over
        # exactly that weight.
        frontier = _distinct(
            np.concatenate(
                [np.empty(0, dtype=np.int64)]
                + [
                    base[(pred[base + v] == u) & (dist[base + u] + old == dist[base + v])]
                    + v
                    for u, v, old, new in changes
                    if new > old
                ]
            )
        )
        waves = [frontier]
        while len(frontier):
            frontier = _distinct(children(frontier))
            waves.append(frontier)
        invalid = _distinct(np.concatenate(waves))
        before = dist[invalid]
        dist[invalid] = INFINITY
        # Re-seed every invalidated node from its best in-neighbor (an
        # over-estimate is fine: phase B only ever lowers labels).
        dist[invalid] = rev.least(invalid, dist, n)

        # Phase B: relax out of the re-seeded nodes and every changed
        # edge's tail, then out of every cell whose label dropped.
        frontier = np.concatenate([invalid, (base[:, None] + tails).ravel()])
        lowered = [np.empty(0, dtype=np.int64)]
        while len(frontier):
            frontier = frontier[np.isfinite(dist[frontier])]
            owner, out, weights = fwd.edges(frontier, n)
            labels = dist[frontier[owner]] + weights
            lower = labels < dist[out]
            out, labels = out[lower], labels[lower]
            np.minimum.at(dist, out, labels)
            frontier = _distinct(out)
            lowered.append(frontier)

        # The moved cells: invalidated cells whose re-derived label differs,
        # and every other cell phase B wrote -- each write strictly lowers
        # a label, so such a cell ends below its pre-batch label.
        is_invalid = np.zeros(len(dist), dtype=bool)
        is_invalid[invalid] = True
        lowered = np.concatenate(lowered)
        moved = _distinct(
            np.concatenate([invalid[dist[invalid] != before], lowered[~is_invalid[lowered]]])
        )

        # Canonical predecessors of every cell whose attachment could move.
        dirty = _distinct(
            np.concatenate(
                [invalid, (base[:, None] + heads).ravel(), moved, fwd.edges(moved, n)[1]]
            )
        )
        # Every dirty cell lies in an affected row; a row's source keeps -1.
        index = self._roster().index
        dirty = dirty[dirty % n != index[dirty // n]]
        canonical = rev.canonical(dirty, dist, n)
        flipped = dirty[canonical != pred[dirty]]
        pred[dirty] = canonical

        # Derive-skip: the rows whose changed cells reach a border node
        # under new-tree children.  Each node has one parent, so each cell
        # joins the closure once.
        border = np.zeros(n, dtype=bool)
        border[index] = True
        changed = _distinct(np.concatenate([moved, flipped]))
        is_changed = np.zeros(len(dist), dtype=bool)
        is_changed[changed] = True
        refold = np.zeros(len(block.dist), dtype=bool)
        frontier = changed
        while len(frontier):
            refold[frontier[border[frontier % n]] // n] = True
            frontier = children(frontier[~refold[frontier // n]])
            frontier = frontier[~is_changed[frontier]]
        return np.flatnonzero(refold)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def upper_bound(self, source_region: int, target_region: int) -> float:
        """EB's upper bound UB for a query between the two regions."""
        return self.max_distance[source_region][target_region]

    def needed_regions_eb(self, source_region: int, target_region: int) -> List[int]:
        """Regions EB must receive: the "network ellipse" of Section 4.2."""
        upper = self.upper_bound(source_region, target_region)
        needed = {source_region, target_region}
        if upper == INFINITY:
            # No pruning possible; every region may be required.
            return list(range(self.num_regions))
        for region in range(self.num_regions):
            min_to = self.min_distance[source_region][region]
            min_from = self.min_distance[region][target_region]
            if min_to + min_from <= upper:
                needed.add(region)
        return sorted(needed)

    def needed_regions_nr(self, source_region: int, target_region: int) -> List[int]:
        """Regions NR marks as needed: union of traversed regions plus endpoints."""
        regions = set(self.traversed_regions.get((source_region, target_region), set()))
        regions.add(source_region)
        regions.add(target_region)
        return sorted(regions)

    def cross_border_in_region(self, region: int) -> List[int]:
        """Cross-border nodes that belong to ``region``."""
        return [
            node
            for node in self.partitioning.nodes_in_region(region)
            if node in self.cross_border_nodes
        ]

    def local_in_region(self, region: int) -> List[int]:
        """Local (non cross-border) nodes of ``region``."""
        return [
            node
            for node in self.partitioning.nodes_in_region(region)
            if node not in self.cross_border_nodes
        ]
