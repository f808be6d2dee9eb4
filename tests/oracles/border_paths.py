"""List-based reference for ``BorderPathPrecomputation._sources_columnar``.

The production method builds the label columns (``dist_values``,
``pred_values``, ``cross_items``) as typed arrays that the codec writes
without boxing an element.  This is the plain form it replaced: every
column a Python list, so the encoded blob it yields is what the typed
columns must reproduce byte for byte.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.air.border_paths import BorderPathPrecomputation
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
