"""Aggregated results produced by the engine's workload execution.

:class:`MethodRun` is the unit every comparison in the paper reports: one
scheme, one workload, the per-query client metrics and their aggregates.  It
used to live in :mod:`repro.experiments.runner`; it now belongs to the engine
layer so that both the :class:`~repro.engine.system.AirSystem` facade and the
experiment harness share one definition (the harness re-exports it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.broadcast.metrics import ClientMetrics, ServerMetrics, average_metrics

__all__ = ["MethodRun", "RefreshReport", "WarmStartReport"]


@dataclass(frozen=True)
class RefreshReport:
    """Outcome of one :meth:`~repro.engine.system.AirSystem.refresh` call.

    Records the fingerprint transition (``parent_fingerprint`` ->
    ``fingerprint``), what the network delta looked like, and which cached
    entries took the incremental path versus a full rebuild.  ``dropped``
    lists entries that were already superseded by a fresh build at the new
    fingerprint and were simply evicted.  ``shadow_errors`` records each
    ``shadow_rebuild`` that raised, as ``(scheme name, "Type: message")``;
    those schemes were rebuilt from scratch and appear in ``rebuilt``.
    """

    parent_fingerprint: str
    fingerprint: str
    structural: bool
    num_changes: int
    num_dirty_nodes: int
    incremental: Tuple[str, ...] = ()
    rebuilt: Tuple[str, ...] = ()
    dropped: Tuple[str, ...] = ()
    seconds: float = 0.0
    #: Refreshed artifacts re-published to the disk tier (0 without a store).
    #: A refresh changes built state, so the previously stored artifacts --
    #: keyed by the superseded network fingerprint -- no longer apply; the
    #: refreshed state is stored under the new fingerprint and the stale
    #: entries await :meth:`~repro.engine.system.AirSystem.prune_cache`.
    artifacts_stored: int = 0
    shadow_errors: Tuple[Tuple[str, str], ...] = ()

    @property
    def refreshed(self) -> int:
        """Cache entries brought up to date (either path)."""
        return len(self.incremental) + len(self.rebuilt)

    @property
    def noop(self) -> bool:
        """``True`` when the network had not changed since the last refresh."""
        return self.parent_fingerprint == self.fingerprint and self.refreshed == 0


@dataclass(frozen=True)
class WarmStartReport:
    """Outcome of one :meth:`~repro.engine.system.AirSystem.warm_start` call.

    ``loaded`` names the schemes restored from the disk tier into the memory
    cache (plus any already cached in memory), ``missing`` the ones without
    a valid stored artifact -- those build from scratch on first use, which
    is the cold path warm start exists to avoid.
    """

    loaded: Tuple[str, ...] = ()
    missing: Tuple[str, ...] = ()
    seconds: float = 0.0

    @property
    def complete(self) -> bool:
        """``True`` when every requested scheme came out of the store."""
        return not self.missing


@dataclass
class MethodRun:
    """Aggregated outcome of one method over one workload."""

    method: str
    server: ServerMetrics
    per_query: List[ClientMetrics] = field(default_factory=list)
    mismatches: int = 0

    @property
    def mean(self) -> ClientMetrics:
        """Average client metrics over the workload."""
        return average_metrics(self.per_query)

    @property
    def peak_memory_bytes(self) -> int:
        """Worst-case client memory over the workload (Table 2's criterion)."""
        if not self.per_query:
            return 0
        return max(metrics.peak_memory_bytes for metrics in self.per_query)
