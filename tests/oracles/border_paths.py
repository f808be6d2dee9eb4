"""Plain references for :class:`~repro.air.border_paths.BorderPathPrecomputation`.

* :func:`sources_columnar` is the list-based form of ``_sources_columnar``.
  The production method builds the label columns (``dist_values``,
  ``pred_values``, ``cross_items``) as typed arrays that the codec writes
  without boxing an element; here every column is a Python list, so the
  encoded blob it yields is what the typed columns must reproduce byte for
  byte.
* :func:`affected_sources` is the per-source scan that
  ``affected_sources`` runs vectorized over its cached label matrix.
* :func:`aggregates` derives the published aggregates straight from one
  oracle Dijkstra per border source and its predecessor paths, without the
  per-source records, masks or kernel.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Set, Tuple

from oracles.dijkstra import dijkstra_distances
from repro.air.border_paths import BorderPathPrecomputation
from repro.network.algorithms.paths import INFINITY
from repro.network.delta import WeightChange
from repro.serialize.codec import encode_value


def sources_columnar(precomputation: BorderPathPrecomputation) -> Dict[str, Any]:
    """The per-source records as flat list columns (orders preserved)."""
    sources = precomputation._sources
    columns: Dict[str, Any] = {
        "num_nodes": len(sources[0].dist) if sources else 0,
        "node": [],
        "region": [],
        "finite_pairs": [],
        "dist_values": [],
        "pred_values": [],
        "cross_offsets": [0],
        "cross_items": [],
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
        columns["dist_values"].extend(record.dist)
        columns["pred_values"].extend(record.pred)
        columns["cross_items"].extend(sorted(record.cross_nodes))
        columns["cross_offsets"].append(len(columns["cross_items"]))
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


def sources_blob(precomputation: BorderPathPrecomputation) -> bytes:
    """The ``sources_blob`` the list columns encode to."""
    return encode_value(sources_columnar(precomputation))


def affected_sources(
    precomputation: BorderPathPrecomputation, changes: Sequence[WeightChange]
) -> List[int]:
    """Indexes of the sources with ``d(u) + min(old, new) <= d(v)`` for a
    change on a reached tail ``u``."""
    relevant = [change for change in changes if not change.is_noop]
    index_of = precomputation.network.ensure_csr().index_of
    affected: List[int] = []
    for index, record in enumerate(precomputation._sources):
        dist = record.dist
        for change in relevant:
            u = index_of.get(change.source)
            v = index_of.get(change.target)
            if u is None or v is None:
                continue
            du = dist[u]
            if du == INFINITY:
                continue
            if du + min(change.old_weight, change.new_weight) <= dist[v]:
                affected.append(index)
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
