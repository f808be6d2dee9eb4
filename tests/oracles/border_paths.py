"""Plain references for :class:`~repro.air.border_paths.BorderPathPrecomputation`.

* :func:`record_from_labels` folds one source's ``dist``/``pred`` labels
  into its derived contributions by walking each finite border target's
  predecessor chain, memoizing region bitmasks -- the record-at-a-time
  fold the production block's batched pointer-doubling ``_fold`` replaces.
* :func:`aggregates_from_records` is the row-by-row fold of those records
  into the published aggregates that the block's grouped reductions
  replace.
* :func:`block_records` reads the production block's rows back as
  records, so a test compares every derived column ``_fold`` wrote with
  the :func:`records` this module folds from the same labels.
* :func:`affected_sources` is the per-source scan that
  ``affected_sources`` runs vectorized over the block's label matrix.
* :func:`aggregates` derives the published aggregates straight from one
  oracle Dijkstra per border source and its predecessor paths, without the
  block, masks or kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Set, Tuple

from oracles.dijkstra import dijkstra_distances
from repro.air.border_paths import BorderPathPrecomputation
from repro.network.algorithms.paths import INFINITY
from repro.network.delta import WeightChange


@dataclass
class BorderRecord:
    """Everything derived from one border source's labels."""

    node: int
    region: int
    dist: List[float]
    pred: List[int]
    cross_nodes: Set[int] = field(default_factory=set)
    finite_pairs: int = 0
    #: Target region -> min / max shortest distance, in encounter order.
    min_to: Dict[int, float] = field(default_factory=dict)
    max_to: Dict[int, float] = field(default_factory=dict)
    #: Target region -> regions traversed by the paths there.
    traversed: Dict[int, Set[int]] = field(default_factory=dict)


def regions_from_mask(mask: int) -> Set[int]:
    """Decode a traversed-regions bitmask back into a region-id set."""
    regions: Set[int] = set()
    region = 0
    while mask:
        if mask & 1:
            regions.add(region)
        mask >>= 1
        region += 1
    return regions


def derive_context(precomputation: BorderPathPrecomputation) -> Tuple:
    """``(ids, index_of, region_bit, border)`` over the precomputation's
    snapshot; ``border`` is the roster as ``(node, index, region)``."""
    csr = precomputation.network.ensure_csr()
    region_of = precomputation.partitioning.region_of
    region_bit = [1 << region_of(node_id) for node_id in csr.ids]
    border = [
        (node, csr.index_of[node], region)
        for node, region in precomputation._all_border
    ]
    return csr.ids, csr.index_of, region_bit, border


def record_from_labels(
    dist: Sequence[float],
    pred: Sequence[int],
    source: int,
    source_region: int,
    ctx: Tuple,
) -> BorderRecord:
    """Fold one source's labels into its published contributions.

    A single pass over the border roster walks each finite target's
    predecessor chain *once*: every visited node memoizes the bitmask of
    regions on its source path, so a chain walk stops at the first node
    already carrying a mask.  The cross-border set and the per-region
    traversed sets fall out of the same walk.
    """
    ids, index_of, region_bit, border = ctx
    source_index = index_of[source]
    mask: List[int] = [0] * len(dist)
    mask[source_index] = region_bit[source_index]
    cross_nodes: Set[int] = {source}
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
                cross_nodes.add(ids[node])
        trav_mask[target_region] = trav_mask.get(target_region, 0) | m

    return BorderRecord(
        node=source,
        region=source_region,
        dist=list(dist),
        pred=list(pred),
        cross_nodes=cross_nodes,
        finite_pairs=finite_pairs,
        min_to=min_to,
        max_to=max_to,
        traversed={region: regions_from_mask(m) for region, m in trav_mask.items()},
    )


def records(precomputation: BorderPathPrecomputation) -> List[BorderRecord]:
    """One :func:`record_from_labels` fold per row of the production labels."""
    block = precomputation.block
    ctx = derive_context(precomputation)
    return [
        record_from_labels(dist, pred, node, region, ctx)
        for dist, pred, (node, region) in zip(
            block.dist.tolist(), block.pred.tolist(), precomputation._all_border
        )
    ]


def aggregates_from_records(
    folded: Sequence[BorderRecord], num_regions: int
) -> Dict[str, Any]:
    """The published aggregates as a row-by-row fold over the records, in
    the insertion order the production reductions reproduce."""
    n = num_regions
    min_distance = [[INFINITY] * n for _ in range(n)]
    max_seen = [[-1.0] * n for _ in range(n)]
    cross: Set[int] = set()
    traversed: Dict[Tuple[int, int], Set[int]] = {}
    pairs = 0
    for record in folded:
        i = record.region
        cross |= record.cross_nodes
        pairs += record.finite_pairs
        for j, value in record.min_to.items():
            min_distance[i][j] = min(min_distance[i][j], value)
        for j, value in record.max_to.items():
            max_seen[i][j] = max(max_seen[i][j], value)
        for j, regions in record.traversed.items():
            traversed.setdefault((i, j), set()).update(regions)
    max_distance = [
        [value if value >= 0.0 else INFINITY for value in row] for row in max_seen
    ]
    return {
        "min_distance": min_distance,
        "max_distance": max_distance,
        "cross_border_nodes": cross,
        "traversed_regions": traversed,
        "num_border_pairs": pairs,
    }


def block_records(precomputation: BorderPathPrecomputation) -> List[BorderRecord]:
    """The production block's rows as records: what :func:`records` must
    equal.  Only ``reach`` entries carry a min/max and a traversed set."""
    block = precomputation.block
    ids = precomputation.network.ensure_csr().ids
    folded: List[BorderRecord] = []
    for row, (node, region) in enumerate(precomputation._all_border):
        reached = [int(j) for j in block.reach[row].nonzero()[0]]
        folded.append(
            BorderRecord(
                node=node,
                region=region,
                dist=block.dist[row].tolist(),
                pred=block.pred[row].tolist(),
                cross_nodes={ids[i] for i in block.cross[row].nonzero()[0]},
                finite_pairs=int(block.finite_pairs[row]),
                min_to={j: float(block.min_to[row, j]) for j in reached},
                max_to={j: float(block.max_to[row, j]) for j in reached},
                traversed={
                    j: regions_from_mask(
                        sum(int(word) << (64 * k) for k, word in enumerate(block.traversed[row, j]))
                    )
                    for j in reached
                },
            )
        )
    return folded


def affected_sources(
    precomputation: BorderPathPrecomputation, changes: Sequence[WeightChange]
) -> List[int]:
    """Rows with ``d(u) + min(old, new) <= d(v)`` for a change on a reached
    tail ``u``."""
    relevant = [change for change in changes if not change.is_noop]
    index_of = precomputation.network.ensure_csr().index_of
    affected: List[int] = []
    for row, dist in enumerate(precomputation.block.dist.tolist()):
        for change in relevant:
            u = index_of.get(change.source)
            v = index_of.get(change.target)
            if u is None or v is None:
                continue
            du = dist[u]
            if du == INFINITY:
                continue
            if du + min(change.old_weight, change.new_weight) <= dist[v]:
                affected.append(row)
                break
    return affected


def aggregates(network, partitioning) -> Dict[str, Any]:
    """``min_distance``, ``max_distance``, ``cross_border_nodes``,
    ``traversed_regions`` and ``num_border_pairs`` over every ordered pair
    of distinct border nodes."""
    n = partitioning.num_regions
    region_of = partitioning.region_of
    border = [
        (node, region) for region in range(n) for node in partitioning.border_nodes(region)
    ]
    min_distance = [[INFINITY] * n for _ in range(n)]
    max_distance = [[INFINITY] * n for _ in range(n)]
    cross: Set[int] = {node for node, _ in border}
    traversed: Dict[Tuple[int, int], Set[int]] = {}
    pairs = 0
    for source, i in border:
        result = dijkstra_distances(network, source)
        for target, j in border:
            distance = result.distance_to(target)
            if target == source or distance == INFINITY:
                continue
            pairs += 1
            min_distance[i][j] = min(min_distance[i][j], distance)
            if max_distance[i][j] == INFINITY or distance > max_distance[i][j]:
                max_distance[i][j] = distance
            path = result.path_to(target)
            cross.update(path)
            traversed.setdefault((i, j), set()).update(region_of(node) for node in path)
    return {
        "min_distance": min_distance,
        "max_distance": max_distance,
        "cross_border_nodes": cross,
        "traversed_regions": traversed,
        "num_border_pairs": pairs,
    }
