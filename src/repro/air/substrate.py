"""The region substrate: one kd partitioning and one border-path block.

NR, EB, ArcFlag and HiTi partition their network with the same kd-tree,
and NR "performs the same border-node pre-computation as EB" (Section 5).
:class:`PartitionedScheme` is the one build, state and restore of that
partitioning.  A scheme made inside a ``with substrate:`` block (a
:class:`Substrate`) keeps that substrate and shares through it
(:meth:`PartitionedScheme._shared`): the partitioning, and NR's and EB's
border-path block, are built or restored once per network version, and a
refresh batch repairs the block once.  An :class:`~repro.engine.AirSystem`
enters its own scope around every build and restore; outside one, as in a
standalone ``air.create(...)``, every scheme builds its own, so Table 3
times each scheme's own build.
"""

from __future__ import annotations

import threading
import weakref
from contextvars import ContextVar
from typing import Any, Callable, Optional, Tuple

from repro.air.base import AirIndexScheme
from repro.partitioning.kdtree import build_kdtree_partitioning
from repro.serialize.graphs import partitioning_state, restore_partitioning

__all__ = ["PartitionedScheme", "Substrate"]

#: The current thread's active substrate and the one it shadows (a stack).
_ACTIVE: ContextVar[Optional[Tuple["Substrate", Any]]] = ContextVar("repro_substrate", default=None)


class Substrate:
    """One system's shared region structures, keyed by network version and
    held weakly: a structure lives as long as a scheme holds it."""

    def __init__(self) -> None:
        self._shared: "weakref.WeakValueDictionary[Tuple, Any]" = weakref.WeakValueDictionary()
        self._lock = threading.Lock()

    def __enter__(self) -> None:
        """Share through this substrate in the current thread until exit."""
        _ACTIVE.set((self, _ACTIVE.get()))

    def __exit__(self, *exc: Any) -> None:
        _ACTIVE.set(_ACTIVE.get()[1])

    def carry(self, parent: str, current: str) -> None:
        """Share ``parent``'s partitionings under ``current``, and forget older
        versions', which no build asks for: kd splits read coordinates and
        borders edge endpoints, so a weight-only batch moves no partitioning
        (``parent``'s stay for the retry of a failed refresh)."""
        if not self._shared:
            return
        with self._lock:
            for key, value in list(self._shared.items()):
                if key[0] != "partitioning" or key[1] == current:
                    continue
                if key[1] == parent:
                    self._shared.setdefault(("partitioning", current, *key[2:]), value)
                else:
                    del self._shared[key]

    def _get(self, key: Tuple, make: Callable[[], Any]) -> Any:
        with self._lock:
            found = self._shared.get(key)
        if found is None:
            # Built outside the lock; racing builds share the first kept.
            found = make()
            with self._lock:
                found = self._shared.setdefault(key, found)
        return found


def _active() -> Optional[Substrate]:
    active = _ACTIVE.get()
    return None if active is None else active[0]


class PartitionedScheme(AirIndexScheme):
    """A scheme over the kd partitioning of its network into ``num_regions``
    regions: NR, EB, ArcFlag and HiTi.

    The structure over the partitioning defaults to ``index_class``, built
    as ``index_class(network, partitioning)``; region schemes override the
    ``_*_index`` hooks with their border-path block.
    """

    num_regions: int

    def _shared(self, kind: str, detail: Any, make: Callable[[], Any]) -> Any:
        """The ``kind`` structure over ``detail`` for the network's current
        version: ``make()``, or what the scheme's substrate already holds."""
        if self._substrate is None:
            return make()
        return self._substrate._get((kind, self.network.fingerprint(), detail), make)

    def _build_state(self) -> None:
        self._substrate = _active()
        self.partitioning = self._shared(
            "partitioning",
            self.num_regions,
            lambda: build_kdtree_partitioning(self.network, self.num_regions),
        )
        self._build_index()

    def _artifact_state(self) -> dict:
        return {"partitioning": partitioning_state(self.partitioning), **self._index_state()}

    def _restore_state(self, state: dict) -> None:
        self._substrate = _active()
        self.partitioning = self._shared(
            "partitioning",
            self.num_regions,
            lambda: restore_partitioning(self.network, state["partitioning"]),
        )
        self._restore_index(state)

    def _build_index(self) -> None:
        self.index = self.index_class(self.network, self.partitioning)
        self.precomputation_seconds = self.index.precomputation_seconds

    def _index_state(self) -> dict:
        return {"index": self.index.state()}

    def _restore_index(self, state: dict) -> None:
        self.index = self.index_class.from_state(self.network, self.partitioning, state["index"])
