"""Plain-value forms of the substrate objects scheme artifacts embed.

Everything here goes through the *plain value* model of
:mod:`repro.serialize.codec`: a partitioning's locator round-trips through
:func:`partitioning_state` / :func:`restore_partitioning`, and a broadcast
cycle's on-air layout is recorded by :func:`cycle_layout` so a restore can
check the cycle it re-lays.  Networks are not serialized: a restore is
always given the network the artifact was built over.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.broadcast.cycle import BroadcastCycle
from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning
from repro.partitioning.grid import GridPartitioner
from repro.partitioning.kdtree import KDTreePartitioner
from repro.serialize.codec import CodecError

__all__ = [
    "partitioning_state",
    "restore_partitioning",
    "cycle_layout",
]


# ----------------------------------------------------------------------
# Partitionings
# ----------------------------------------------------------------------
def partitioning_state(partitioning: Partitioning) -> Dict[str, Any]:
    """Plain-value form of a partitioning's *locator*.

    Only the locator is stored: region membership and border sets are pure
    functions of (locator, network) and are recomputed on restore, exactly
    as the paper's clients rebuild the kd-tree from the broadcast splitting
    values alone.
    """
    locator = partitioning.locator
    if isinstance(locator, KDTreePartitioner):
        return {
            "kind": "kdtree",
            "num_regions": locator.num_regions,
            "splits": locator.splitting_values(),
        }
    if isinstance(locator, GridPartitioner):
        return {
            "kind": "grid",
            "bounds": list(locator.bounds),
            "rows": locator.rows,
            "cols": locator.cols,
        }
    raise CodecError(
        f"cannot serialize partitioning locator of type {type(locator).__name__}"
    )


def restore_partitioning(network: RoadNetwork, state: Dict[str, Any]) -> Partitioning:
    """Rebuild a :class:`Partitioning` over ``network`` from its locator state."""
    kind = state["kind"]
    if kind == "kdtree":
        locator = KDTreePartitioner.from_splitting_values(
            state["splits"], state["num_regions"]
        )
    elif kind == "grid":
        locator = GridPartitioner(tuple(state["bounds"]), state["rows"], state["cols"])
    else:
        raise CodecError(f"unknown partitioning kind {kind!r}")
    return Partitioning(network, locator)


# ----------------------------------------------------------------------
# BroadcastCycle layouts
# ----------------------------------------------------------------------
def cycle_layout(cycle: BroadcastCycle) -> Dict[str, Any]:
    """The on-air layout of a cycle as plain values (payloads excluded).

    One record per segment -- name, kind, payload size, packet count,
    region -- in broadcast order.  This pins down every packet position of
    the cycle without duplicating the (scheme-owned) payload objects:
    artifacts embed it so a restore can verify that the cycle it re-lays
    from the restored state matches the one the build produced, and the
    store's inspection tooling prints it without touching scheme state.
    """
    return {
        "name": cycle.name,
        "total_packets": cycle.total_packets,
        "segments": [
            [
                segment.name,
                segment.kind.value,
                segment.size_bytes,
                segment.num_packets,
                segment.region,
            ]
            for segment in cycle.segments
        ],
    }
