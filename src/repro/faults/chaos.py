"""Chaos driver: run a seeded fault plan against a live serving daemon.

:func:`run_chaos` is the shared engine behind the ``repro chaos`` CLI
sub-command, the CI chaos smoke step and ``benchmarks/bench_resilience.py``:
it installs a :class:`~repro.faults.plan.FaultPlan` on the daemon (server
*and* workers, over the ``chaos`` admin op), drives the query workload
through :func:`~repro.serving.client.run_load` -- reconnecting clients,
per-request deadlines, optional mid-run refresh batches, the bit-identity
check -- and adds what only the daemon knows to the report: the plan's
fault counts and its ``info`` (worker respawns and MTTR).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.faults.plan import FaultPlan
from repro.serving import protocol
from repro.serving.client import Address, LoadReport, Reference, ServingClient, run_load

__all__ = ["run_chaos"]

_ADMIN_ERRORS = (protocol.ServerError, protocol.ProtocolError, OSError)


def run_chaos(
    address: Address,
    plan: Optional[FaultPlan],
    pairs: Sequence[Tuple[int, int]],
    method: str = "NR",
    concurrency: int = 4,
    deadline_ms: float = 2000.0,
    refreshes: Sequence[Sequence[Tuple[int, int, float]]] = (),
    reference: Optional[Reference] = None,
) -> LoadReport:
    """Install ``plan`` on the daemon at ``address`` and measure the damage.

    The load is :func:`~repro.serving.client.run_load`'s, with a
    ``deadline_ms`` budget per request.  The plan is cleared from server
    and workers before returning, win or lose; pass ``plan=None`` to
    measure a fault-free baseline with the same driver.
    """
    admin = ServingClient(address, timeout=60.0)
    try:
        if plan is not None:
            admin.call({"op": "chaos", "action": "install", "plan": plan.to_dict()})
        report = run_load(
            address,
            pairs,
            method=method,
            concurrency=concurrency,
            deadline_ms=deadline_ms,
            refreshes=refreshes,
            reference=reference,
        )
        if plan is not None:
            try:
                stats = admin.call({"op": "chaos", "action": "stats"})
                report.fault_stats = stats.get("faults") or {}
            except _ADMIN_ERRORS:
                pass
        try:
            report.server = admin.call({"op": "info"})
        except _ADMIN_ERRORS:
            pass
    finally:
        try:
            if plan is not None:
                admin.call({"op": "chaos", "action": "clear"})
        except _ADMIN_ERRORS:
            pass
        admin.close()
    return report
