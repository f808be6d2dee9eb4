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
* :func:`repair_row` is the per-row, queue-based label repair that
  ``_repair_rows`` runs over every affected row at once.
* :func:`aggregates` derives the published aggregates straight from one
  oracle Dijkstra per border source and its predecessor paths, without the
  block, masks or kernel.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Set, Tuple

import numpy as np

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


def repair_row(
    precomputation: BorderPathPrecomputation,
    row: int,
    changes: List[Tuple[int, int, float, float]],
    csr,
    border_indexes: Set[int],
) -> bool:
    """Batch dynamic SSSP repair of one row's labels (Ramalingam-Reps), one
    row at a time -- the queue-based loop the block's batched
    ``_repair_rows`` replaces.

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
    equal a scratch sweep's exactly.  Writes moved labels back into the
    block and returns whether the row's derived columns must re-fold.
    """
    fwd_adj = csr.fwd_adj
    rev_adj = csr.rev_adj
    block = precomputation.block
    source_index = csr.index_of[precomputation._all_border[row][0]]
    dist = array("d", block.dist[row].tobytes())
    pred = array("q", block.pred[row].tobytes())

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
        # Neither a label nor the tie-broken tree moved.
        return False
    block.dist[row] = np.frombuffer(dist)
    block.pred[row] = np.frombuffer(pred, dtype=np.int64)

    # Derive-skip: a border target's distance can only move if the
    # border is itself in ``moved``, and its predecessor chain can only
    # change if the chain passes a flipped attachment -- which makes the
    # border a new-tree descendant of a changed node.  So when the
    # closure of changed nodes under new-tree children reaches no border
    # target, every derived column of this row (cross-border nodes,
    # traversed masks, min/max, finite-pair count) is bit-identical.
    closure: Set[int] = set(moved)
    closure.update(pred_flipped)
    stack = list(closure)
    while stack:
        x = stack.pop()
        if x in border_indexes:
            return True
        for child, _w in fwd_adj[x]:
            if pred[child] == x and child not in closure:
                closure.add(child)
                stack.append(child)
    return False


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
