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

Dynamic networks: the computation is organized as one independent record per
border *source* (its full distance/predecessor labels over the CSR snapshot,
plus everything derived from its shortest path tree), and the published
aggregates are a pure, order-free fold over those records.
:meth:`BorderPathPrecomputation.refresh` exploits that three ways:

* :meth:`affected_sources` decides -- exactly, from the cached labels and
  the old/new weights -- which sources a change batch can touch, vectorized
  over a cached ``sources x nodes`` distance matrix;
* each affected source is brought up to date by :meth:`_repair_source`, a
  batch Ramalingam-Reps-style repair that seeds a priority queue from the
  endpoints of the changed edges and settles only the nodes whose distance
  (or tie-broken predecessor) actually moves, instead of re-running the
  source's Dijkstra from scratch; and
* the per-source contributions are re-derived by a memoized predecessor-
  chain walk whose cost is proportional to the tree paths actually touched,
  after which the aggregates re-fold.

Unaffected sources provably have bit-identical labels, and the repair
reconverges to the same unique float fixed point with the same canonical
tie-breaks as the kernel (see :meth:`_repair_source`), so the refreshed
state equals a from-scratch rebuild bit for bit.
"""

from __future__ import annotations

import heapq
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.network.algorithms import kernel
from repro.network.algorithms.paths import INFINITY
from repro.network.delta import WeightChange
from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning

__all__ = ["BorderPathPrecomputation"]


def _regions_from_mask(mask: int) -> Set[int]:
    """Decode a traversed-regions bitmask back into a region-id set."""
    regions: Set[int] = set()
    region = 0
    while mask:
        if mask & 1:
            regions.add(region)
        mask >>= 1
        region += 1
    return regions


@dataclass
class _BorderSource:
    """Everything pre-computed from one border source node.

    The published aggregates (min/max region distances, cross-border node
    set, traversed-region sets) are folds over these records, which is what
    lets :meth:`BorderPathPrecomputation.refresh` re-run only the affected
    sources after a weight update.

    ``dist``/``pred`` are the full kernel labels indexed by CSR node index
    (``inf`` / ``-1`` for unreached nodes).  Records are treated as
    immutable once built: a refresh *replaces* the record of an affected
    source, so a shadow copy (:meth:`BorderPathPrecomputation.shadow`) can
    share the unchanged ones.
    """

    node: int
    region: int
    #: Dijkstra distance labels, indexed by CSR node index.
    dist: array
    #: Shortest path tree predecessors (CSR indexes; ``-1`` = none).
    pred: array
    #: Nodes on at least one pre-computed path from this source.
    cross_nodes: Set[int] = field(default_factory=set)
    #: Finite border-pair count contributed by this source.
    finite_pairs: int = 0
    #: Target region -> min / max shortest distance from this source.
    min_to: Dict[int, float] = field(default_factory=dict)
    max_to: Dict[int, float] = field(default_factory=dict)
    #: Target region -> regions traversed by the pre-computed paths there.
    traversed: Dict[int, Set[int]] = field(default_factory=dict)


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
        #: Backing storage of the ``_sources`` property; a restore keeps the
        #: records encoded in ``_sources_blob`` until a refresh needs them.
        self._source_records: List[_BorderSource] = []
        self._sources_blob = None
        #: Cached ``sources x nodes`` float64 distance matrix backing the
        #: vectorized affected-source test (built lazily, rows updated in
        #: place by :meth:`refresh`).
        self._dist_matrix = None

        self._compute()

    def _compute(self) -> None:
        started = time.perf_counter()
        partitioning = self.partitioning

        border_by_region: List[List[int]] = [
            partitioning.border_nodes(region) for region in range(self.num_regions)
        ]
        #: ``(node, region)`` for every border node, in region-then-list order.
        self._all_border: List[Tuple[int, int]] = [
            (node, region)
            for region in range(self.num_regions)
            for node in border_by_region[region]
        ]
        self._border_set = {node for node, _ in self._all_border}

        # One batched kernel sweep covers every border source: the arena's
        # many-to-many path computes the distance labels of whole source
        # chunks per accelerated call, and each source's shortest path tree
        # arrives as flat index arrays the derivation below walks.
        csr = self.network.ensure_csr()
        arena = kernel.arena_for(csr)
        sweeps = arena.many_to_many(
            [source for source, _ in self._all_border], need_predecessors=True
        )
        ctx = self._derive_context(csr)
        self._source_records = [
            self._record_from_labels(
                array("d", sweep.dist), array("q", sweep.pred), source, region, ctx
            )
            for sweep, (source, region) in zip(sweeps, self._all_border)
        ]
        self._dist_matrix = None
        self._aggregate()
        self.precomputation_seconds = time.perf_counter() - started

    def _derive_context(self, csr) -> Tuple:
        """Per-snapshot arrays shared by every per-source derivation.

        ``region_bit[i]`` is the region bitmask bit of CSR index ``i`` and
        ``border`` the roster as ``(node, index, region)`` triples -- built
        once per build/refresh instead of per source.
        """
        region_of = self.partitioning.region_of
        ids = csr.ids
        index_of = csr.index_of
        region_bit = [1 << region_of(node_id) for node_id in ids]
        border = [(node, index_of[node], region) for node, region in self._all_border]
        border_indexes = {index for _node, index, _region in border}
        return ids, index_of, region_bit, border, border_indexes

    def _compute_source(
        self, source: int, source_region: int, ctx: Optional[Tuple] = None
    ) -> _BorderSource:
        """Run one border source's Dijkstra and derive its contributions."""
        csr = self.network.ensure_csr()
        arena = kernel.arena_for(csr)
        sweep = arena.sssp(source, need_predecessors=True)
        if ctx is None:
            ctx = self._derive_context(csr)
        return self._record_from_labels(
            array("d", sweep.dist), array("q", sweep.pred), source, source_region, ctx
        )

    def _record_from_labels(
        self,
        dist: array,
        pred: array,
        source: int,
        source_region: int,
        ctx: Tuple,
    ) -> _BorderSource:
        """Fold one source's labels into its published contributions.

        A single pass over the border roster walks each finite target's
        predecessor chain *once*: every visited node memoizes the bitmask of
        regions on its source path, so a chain walk stops at the first node
        already carrying a mask (whose ancestors were necessarily walked
        before).  The cross-border set and the per-region traversed sets
        fall out of the same walk; the fold's cost is proportional to the
        number of distinct tree-path nodes, not paths times path length.
        Order-free over the tree, so it serves scratch builds and repairs
        alike.
        """
        ids, index_of, region_bit, border, _border_indexes = ctx
        source_index = index_of[source]
        mask: List[int] = [0] * len(dist)
        mask[source_index] = region_bit[source_index]
        cross_nodes: Set[int] = {source}
        cross_add = cross_nodes.add
        min_to: Dict[int, float] = {}
        max_to: Dict[int, float] = {}
        trav_mask: Dict[int, int] = {}
        finite_pairs = 0

        for target, target_index, target_region in border:
            if target == source:
                continue
            distance = dist[target_index]
            if distance == INFINITY:
                continue
            finite_pairs += 1
            if distance < min_to.get(target_region, INFINITY):
                min_to[target_region] = distance
            if distance > max_to.get(target_region, -1.0):
                max_to[target_region] = distance

            m = mask[target_index]
            if not m:
                stack: List[int] = []
                node = target_index
                while not mask[node]:
                    stack.append(node)
                    node = pred[node]
                m = mask[node]
                while stack:
                    node = stack.pop()
                    m |= region_bit[node]
                    mask[node] = m
                    cross_add(ids[node])
            trav_mask[target_region] = trav_mask.get(target_region, 0) | m

        return _BorderSource(
            node=source,
            region=source_region,
            dist=dist,
            pred=pred,
            cross_nodes=cross_nodes,
            finite_pairs=finite_pairs,
            min_to=min_to,
            max_to=max_to,
            traversed={
                region: _regions_from_mask(m) for region, m in trav_mask.items()
            },
        )

    def _aggregate(self) -> None:
        """Fold the per-source records into the published aggregates.

        Pure and order-free (mins, maxes, unions, sums), so re-folding after
        an incremental refresh yields exactly what a from-scratch build would.
        """
        n = self.num_regions
        self.min_distance = [[INFINITY] * n for _ in range(n)]
        self.max_distance = [[INFINITY] * n for _ in range(n)]
        self.cross_border_nodes = set()
        self.traversed_regions = {}
        self.num_border_pairs = 0
        max_seen: List[List[float]] = [[-1.0] * n for _ in range(n)]

        for record in self._sources:
            i = record.region
            self.cross_border_nodes |= record.cross_nodes
            self.num_border_pairs += record.finite_pairs
            row_min = self.min_distance[i]
            row_max = max_seen[i]
            for j, value in record.min_to.items():
                if value < row_min[j]:
                    row_min[j] = value
            for j, value in record.max_to.items():
                if value > row_max[j]:
                    row_max[j] = value
            for j, regions in record.traversed.items():
                self.traversed_regions.setdefault((i, j), set()).update(regions)

        for i in range(n):
            for j in range(n):
                if max_seen[i][j] >= 0.0:
                    self.max_distance[i][j] = max_seen[i][j]

    # ------------------------------------------------------------------
    # Build/serve split: separable state
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """The computed state as plain values (see :mod:`repro.serialize`).

        Two parts with different service lives: the published *aggregates*
        (what query processing reads) are stored eagerly, while the heavy
        per-source records (only :meth:`refresh` needs them) are packed
        columnar -- a handful of flat int/float arrays instead of thousands
        of small dicts -- and nested as one pre-encoded blob that
        :meth:`from_state` defers decoding until the first refresh.  That
        keeps a warm start independent of the per-source table size without
        giving up bit-identical refreshes.  The blob's bulk columns (the
        labels and the cross-border items, see :meth:`_sources_columnar`)
        are typed arrays the codec writes without boxing an element, so
        encoding it costs little more than copying the labels.
        """
        from repro.serialize.codec import encode_value

        if self._source_records is None:
            # Restored and never refreshed: the records are still encoded;
            # re-publish the blob as-is instead of a decode/encode round.
            sources_blob = self._sources_blob
        else:
            sources_blob = encode_value(self._sources_columnar())
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
            "sources_blob": sources_blob,
            "seconds": self.precomputation_seconds,
        }

    def _sources_columnar(self) -> Dict[str, Any]:
        """The per-source records as flat columns (orders preserved).

        The ``dist``/``pred`` labels are positional (every source carries
        exactly ``num_nodes`` entries), so they concatenate without offset
        columns.  The three columns holding nearly all of the bytes are
        typed arrays: ``dist_values`` (``array("d")``) and ``pred_values``
        (``array("q")``) append the records' label arrays buffer to buffer,
        and ``cross_items`` (``array("q")``) takes each sorted cross-border
        set.  The codec writes each as its raw buffer, without boxing an
        element, in exactly the bytes of the equal list (which is also what
        they decode to).  The remaining, short per-record containers are
        concatenated lists with offsets.  Dict insertion orders (encounter
        order for ``min_to``/``max_to``/``traversed``) survive the
        concatenation; sets are stored sorted.
        """
        sources = self._sources
        dist_values = array("d")
        pred_values = array("q")
        cross_items = array("q")
        columns: Dict[str, Any] = {
            "num_nodes": len(sources[0].dist) if sources else 0,
            "node": [],
            "region": [],
            "finite_pairs": [],
            "dist_values": dist_values,
            "pred_values": pred_values,
            "cross_offsets": [0],
            "cross_items": cross_items,
            "min_offsets": [0],
            "min_keys": [],
            "min_values": [],
            "max_offsets": [0],
            "max_keys": [],
            "max_values": [],
            "trav_offsets": [0],
            "trav_keys": [],
            "trav_set_offsets": [0],
            "trav_set_items": [],
        }
        for record in sources:
            columns["node"].append(record.node)
            columns["region"].append(record.region)
            columns["finite_pairs"].append(record.finite_pairs)
            dist_values += record.dist
            pred_values += record.pred
            cross_items.extend(sorted(record.cross_nodes))
            columns["cross_offsets"].append(len(cross_items))
            columns["min_keys"].extend(record.min_to.keys())
            columns["min_values"].extend(record.min_to.values())
            columns["min_offsets"].append(len(columns["min_keys"]))
            columns["max_keys"].extend(record.max_to.keys())
            columns["max_values"].extend(record.max_to.values())
            columns["max_offsets"].append(len(columns["max_keys"]))
            for region, regions in record.traversed.items():
                columns["trav_keys"].append(region)
                columns["trav_set_items"].extend(sorted(regions))
                columns["trav_set_offsets"].append(len(columns["trav_set_items"]))
            columns["trav_offsets"].append(len(columns["trav_keys"]))
        return columns

    @staticmethod
    def _sources_from_columnar(columns: Dict[str, Any]) -> List[_BorderSource]:
        """Inverse of :meth:`_sources_columnar`."""
        records: List[_BorderSource] = []
        num_nodes = columns["num_nodes"]
        dist_values = columns["dist_values"]
        pred_values = columns["pred_values"]
        for index, (node, region, finite) in enumerate(
            zip(columns["node"], columns["region"], columns["finite_pairs"])
        ):
            c0, c1 = columns["cross_offsets"][index : index + 2]
            m0, m1 = columns["min_offsets"][index : index + 2]
            x0, x1 = columns["max_offsets"][index : index + 2]
            t0, t1 = columns["trav_offsets"][index : index + 2]
            traversed: Dict[int, Set[int]] = {}
            for position in range(t0, t1):
                s0, s1 = columns["trav_set_offsets"][position : position + 2]
                traversed[columns["trav_keys"][position]] = set(
                    columns["trav_set_items"][s0:s1]
                )
            base = index * num_nodes
            records.append(
                _BorderSource(
                    node=node,
                    region=region,
                    dist=array("d", dist_values[base : base + num_nodes]),
                    pred=array("q", pred_values[base : base + num_nodes]),
                    cross_nodes=set(columns["cross_items"][c0:c1]),
                    finite_pairs=finite,
                    min_to=dict(
                        zip(columns["min_keys"][m0:m1], columns["min_values"][m0:m1])
                    ),
                    max_to=dict(
                        zip(columns["max_keys"][x0:x1], columns["max_values"][x0:x1])
                    ),
                    traversed=traversed,
                )
            )
        return records

    @classmethod
    def from_state(
        cls, network: RoadNetwork, partitioning: Partitioning, state: Dict[str, Any]
    ) -> "BorderPathPrecomputation":
        """Reconstruct from :meth:`state` output without re-running Dijkstra.

        The published aggregates install directly; the per-source blob stays
        encoded until the first :meth:`refresh`/:meth:`affected_sources`
        call touches :attr:`_sources` (serving queries never does).
        """
        self = object.__new__(cls)
        self.network = network
        self.partitioning = partitioning
        n = partitioning.num_regions
        self.num_regions = n
        roster = state["all_border"]
        self._all_border = list(zip(roster["nodes"], roster["regions"]))
        self._border_set = set(roster["nodes"])
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
        self._source_records = None
        self._sources_blob = state["sources_blob"]
        self._dist_matrix = None
        self.precomputation_seconds = state["seconds"]
        return self

    def shadow(self) -> "BorderPathPrecomputation":
        """A structurally shared copy safe to :meth:`refresh` independently.

        Records are immutable once built and a refresh replaces -- never
        mutates -- the affected ones, so the shadow shares every record with
        its parent through a shallow list copy; ``_aggregate`` likewise
        assigns fresh aggregate containers instead of mutating the shared
        ones.  This is what makes the engine's double-buffered
        ``refresh_async`` cheap: the serving instance keeps answering from
        its pre-delta state while the shadow repairs.
        """
        clone = object.__new__(BorderPathPrecomputation)
        clone.__dict__.update(self.__dict__)
        if self._source_records is not None:
            clone._source_records = list(self._source_records)
        clone._dist_matrix = None
        return clone

    @property
    def _sources(self) -> List[_BorderSource]:
        """The per-source records, decoding the deferred blob on first use."""
        if self._source_records is None:
            from repro.serialize.codec import decode_value

            self._source_records = self._sources_from_columnar(
                decode_value(self._sources_blob)
            )
            self._sources_blob = None
        return self._source_records

    # ------------------------------------------------------------------
    # Incremental refresh
    # ------------------------------------------------------------------
    def affected_sources(self, changes: Sequence[WeightChange]) -> List[int]:
        """Indexes of border sources whose results a change batch can touch.

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

        The test runs vectorized over the cached label matrix, one
        ``sources``-length column test per change (the per-source Python
        scan it replaces is the test oracle ``tests/oracles/border_paths.py``).
        """
        relevant = [change for change in changes if not change.is_noop]
        if not relevant:
            return []
        sources = self._sources
        if not sources:
            return []
        index_of = self.network.ensure_csr().index_of
        matrix = self._ensure_dist_matrix()
        hit = np.zeros(len(sources), dtype=bool)
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

    def _ensure_dist_matrix(self):
        """The cached ``sources x nodes`` float64 label matrix."""
        sources = self._sources
        num_nodes = len(sources[0].dist) if sources else 0
        matrix = self._dist_matrix
        if matrix is None or matrix.shape != (len(sources), num_nodes):
            matrix = np.empty((len(sources), num_nodes), dtype=np.float64)
            for row, record in enumerate(sources):
                matrix[row] = np.frombuffer(record.dist)
            self._dist_matrix = matrix
        return matrix

    def refresh(self, changes: Sequence[WeightChange]) -> int:
        """Repair the affected border sources after a weight-change batch.

        Only valid for weight changes (the caller handles structural changes
        with a full rebuild: they can move borders).  Each affected source is
        repaired in place of its record -- never from scratch -- unless the
        snapshot carries non-positive weights, where the settle-order
        arguments behind the repair's tie-breaking do not hold and the
        per-source Dijkstra re-run remains the fallback.  Returns the number
        of affected sources; the published aggregates afterwards equal a
        from-scratch :class:`BorderPathPrecomputation` over the mutated
        network, bit for bit.
        """
        relevant = [change for change in changes if not change.is_noop]
        affected = self.affected_sources(relevant)
        if not affected:
            return 0
        csr = self.network.ensure_csr()
        ctx = self._derive_context(csr)
        index_of = csr.index_of
        repair_changes: Optional[List[Tuple[int, int, float, float]]] = None
        if not csr.has_nonpositive_weight:
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
        replaced = 0
        derived_changed = False
        for index in affected:
            record = self._sources[index]
            if repair_changes is None:
                new_record = self._compute_source(record.node, record.region, ctx)
            else:
                new_record = self._repair_source(record, repair_changes, csr, ctx)
            if new_record is record:
                continue  # affected but provably unmoved: keep the record
            self._sources[index] = new_record
            replaced += 1
            if new_record.min_to is not record.min_to:
                derived_changed = True
            if self._dist_matrix is not None:
                self._dist_matrix[index] = np.frombuffer(new_record.dist)
        if derived_changed:
            # Repairs that only moved interior labels share the old record's
            # derived fields by reference; the fold inputs are then unchanged
            # and the published aggregates already equal a scratch build's.
            self._aggregate()
        return len(affected)

    def _repair_source(
        self,
        record: _BorderSource,
        changes: List[Tuple[int, int, float, float]],
        csr,
        ctx: Tuple,
    ) -> _BorderSource:
        """Batch dynamic SSSP repair of one source's labels (Ramalingam-Reps).

        Phase A invalidates the subtree hanging off every *tree* edge whose
        weight increased (its nodes are the only ones whose distance can
        grow) and re-seeds each invalidated node from its best intact
        in-neighbor.  Phase B seeds the queue from the tails of every
        changed edge and runs a bounded Dijkstra that settles only nodes
        whose label actually moves.  Finally, canonical predecessors --
        ``argmin`` over achieving in-edges of ``(dist[u], u)``, exactly the
        kernel reconstruction's "first achieving relaxation in settle order"
        -- are recomputed for every node whose tree attachment could have
        changed.

        Bit-identity: every label is produced by the same ``dist[u] + w``
        float expression a scratch Dijkstra evaluates, and under strictly
        positive weights the converged labels are the unique fixed point of
        those expressions, so the repaired labels (and the tie-broken tree)
        equal a scratch sweep's exactly.  If neither a distance nor a
        predecessor moved, the original record is returned unchanged.
        """
        fwd_adj = csr.fwd_adj
        rev_adj = csr.rev_adj
        _, index_of, _, _, border_indexes = ctx
        source_index = index_of[record.node]
        dist = array("d", record.dist)
        pred = array("q", record.pred)

        # Phase A: collect the subtrees hanging off broken tree edges.  The
        # supporting-weight test uses the *pre-batch* weight (the delta's
        # coalesced first-old), because the cached labels were computed over
        # exactly that weight.
        invalid: List[int] = []
        invalid_flag = bytearray(len(dist))
        for u, v, old_weight, new_weight in changes:
            if (
                new_weight > old_weight
                and not invalid_flag[v]
                and pred[v] == u
                and dist[u] + old_weight == dist[v]
            ):
                invalid_flag[v] = 1
                stack = [v]
                while stack:
                    x = stack.pop()
                    invalid.append(x)
                    for child, _w in fwd_adj[x]:
                        if pred[child] == x and not invalid_flag[child]:
                            invalid_flag[child] = 1
                            stack.append(child)

        old_dist: Dict[int, float] = {}
        for x in invalid:
            old_dist[x] = dist[x]
            dist[x] = INFINITY

        heap: List[Tuple[float, int]] = []
        push = heapq.heappush
        pop = heapq.heappop
        # Re-seed every invalidated node from its best currently-intact
        # in-neighbor (an over-estimate is fine: phase B settles downward).
        for x in invalid:
            best = INFINITY
            for u, w in rev_adj[x]:
                candidate = dist[u] + w
                if candidate < best:
                    best = candidate
            if best < INFINITY:
                dist[x] = best
                push(heap, (best, x))

        # Seed from the tails of every changed edge: a decreased edge can
        # only open a shorter path through a relaxation out of its tail.
        for u in {change[0] for change in changes}:
            du = dist[u]
            if du == INFINITY:
                continue
            for v, w in fwd_adj[u]:
                candidate = du + w
                if candidate < dist[v]:
                    if v not in old_dist:
                        old_dist[v] = dist[v]
                    dist[v] = candidate
                    push(heap, (candidate, v))

        # Phase B: bounded Dijkstra over the moving frontier only.
        while heap:
            d, x = pop(heap)
            if d > dist[x]:
                continue
            for v, w in fwd_adj[x]:
                candidate = d + w
                if candidate < dist[v]:
                    if v not in old_dist:
                        old_dist[v] = dist[v]
                    dist[v] = candidate
                    push(heap, (candidate, v))

        moved = [x for x, previous in old_dist.items() if dist[x] != previous]

        # Canonical predecessor recompute: every invalidated node, every
        # changed-edge head, every moved node and its out-neighbors -- the
        # complete set of nodes whose achieving-in-edge minimum could differ.
        dirty: Set[int] = set(invalid)
        for _u, v, _old, _new in changes:
            dirty.add(v)
        for x in moved:
            dirty.add(x)
            for v, _w in fwd_adj[x]:
                dirty.add(v)
        dirty.discard(source_index)

        pred_flipped: List[int] = []
        for x in dirty:
            dx = dist[x]
            if dx == INFINITY:
                best = -1
            else:
                best = -1
                best_key = None
                for u, w in rev_adj[x]:
                    if dist[u] + w == dx:
                        key = (dist[u], u)
                        if best_key is None or key < best_key:
                            best_key = key
                            best = u
            if best != pred[x]:
                pred[x] = best
                pred_flipped.append(x)

        if not moved and not pred_flipped:
            # Neither a label nor the tie-broken tree moved: the record's
            # derived contributions are identical by construction.
            return record

        # Derive-skip: a border target's distance can only move if the
        # border is itself in ``moved``, and its predecessor chain can only
        # change if the chain passes a flipped attachment -- which makes the
        # border a new-tree descendant of a changed node.  So when the
        # closure of changed nodes under new-tree children reaches no border
        # target, every published contribution of this record (cross-border
        # nodes, traversed masks, min/max folds, finite-pair count) is
        # bit-identical, and only the raw labels need replacing.
        closure: Set[int] = set(moved)
        closure.update(pred_flipped)
        stack = list(closure)
        touches_border = False
        while stack:
            x = stack.pop()
            if x in border_indexes:
                touches_border = True
                break
            for child, _w in fwd_adj[x]:
                if pred[child] == x and child not in closure:
                    closure.add(child)
                    stack.append(child)
        if not touches_border:
            return _BorderSource(
                node=record.node,
                region=record.region,
                dist=dist,
                pred=pred,
                cross_nodes=record.cross_nodes,
                finite_pairs=record.finite_pairs,
                min_to=record.min_to,
                max_to=record.max_to,
                traversed=record.traversed,
            )
        return self._record_from_labels(
            dist, pred, record.node, record.region, ctx
        )

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
