"""Edge-weight update records and the network's pending-change delta.

A live road network is not static: congestion and closures change edge
costs continuously.  :class:`EdgeUpdate` is the *request* unit a dynamic
workload emits (set edge ``source -> target`` to ``weight``);
:class:`WeightChange` is the *applied* record the network keeps (old and new
weight, which the incremental rebuilds need to decide what a change could
have affected); :class:`NetworkDelta` is the coalesced set of pending
changes a :class:`~repro.network.graph.RoadNetwork` accumulates between two
:meth:`~repro.engine.system.AirSystem.refresh` calls.

Changes are coalesced per physical edge: applying ``w0 -> w1 -> w2`` leaves
one record ``w0 -> w2``, and applying ``w0 -> w1 -> w0`` leaves none (the
edge is back where the last refresh saw it).  Parallel edges of one pair
each keep their own record.  This bounds the delta by the number of
*distinct* touched edges, not by the stream length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Set, Tuple

__all__ = ["EdgeUpdate", "InvalidUpdateError", "WeightChange", "NetworkDelta"]


@dataclass(frozen=True)
class EdgeUpdate:
    """One requested edge-weight update: set ``source -> target`` to ``weight``."""

    source: int
    target: int
    weight: float


class InvalidUpdateError(ValueError):
    """An update batch failed validation, so none of it was applied.

    ``index`` is the position of the first invalid update in the batch.
    """

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"update {index}: {reason}")
        self.index = index


@dataclass(frozen=True)
class WeightChange:
    """One applied edge-weight change, with both the old and the new weight.

    The old weight is what makes incremental rebuilds sound: whether a
    shortest-path tree rooted at some node can be affected by the change is
    decided by comparing cached distances against *both* weights: the
    kernel owns that test (:func:`repro.network.algorithms.kernel.affected_rows`)
    and the repair of the rows it picks (``KernelArena.repair_rows``).
    """

    source: int
    target: int
    old_weight: float
    new_weight: float

    @property
    def is_noop(self) -> bool:
        """``True`` when the change leaves the weight where it was."""
        return self.old_weight == self.new_weight


@dataclass(frozen=True)
class NetworkDelta:
    """Everything that changed on a network since its delta was last cleared.

    Attributes
    ----------
    changes:
        Applied weight changes, coalesced per physical edge (first old
        weight, last new weight), grouped by ``(source, target)`` pair in
        first-touch order.
    structural:
        ``True`` when a node or edge was added or removed.  Structural
        changes can move partition boundaries and change segment layouts,
        so every scheme falls back to a full rebuild.
    dirty_nodes:
        Endpoints of every changed edge (plus any added node).  Schemes map
        these onto their own partitionings via :meth:`dirty_regions`.
    """

    changes: Tuple[WeightChange, ...] = ()
    structural: bool = False
    dirty_nodes: FrozenSet[int] = frozenset()

    @property
    def empty(self) -> bool:
        """``True`` when nothing changed since the last refresh."""
        return not self.changes and not self.structural and not self.dirty_nodes

    def dirty_regions(self, partitioning) -> Set[int]:
        """The per-partition dirty set: regions containing a dirty node.

        ``partitioning`` is any object with a ``region_of(node_id)`` method
        (duck-typed so this module never imports the partitioning layer).
        """
        return {partitioning.region_of(node) for node in self.dirty_nodes}
