"""Resilience under chaos -- availability, identity and MTTR of the daemon.

Not a table or figure of the paper: the acceptance benchmark for the
fault-injection and recovery layer.  The serving daemon is driven through
the ``smoke`` chaos scenario (worker SIGKILLs mid-request, dropped,
truncated and bit-flipped response frames, one refresh forced to fail
mid-rebuild) while a reconnecting client fleet issues a duplicate-heavy
query burst under end-to-end deadlines.  Three floors are asserted:

* **Availability** -- the fraction of requests answered ``ok`` within
  their deadline must reach ``REPRO_RESILIENCE_MIN_AVAILABILITY``
  (default 0.99): every injected failure is survivable within one
  request budget.
* **Bit identity** -- zero violations.  Every answer is checked twice
  over: against the direct in-process system's ground truth for the
  served fingerprint, and for self-consistency across the duplicated
  pairs.  Chaos may cost latency, never a wrong answer.
* **MTTR** -- the monitor's detection-to-respawn time for SIGKILLed
  workers stays under ``REPRO_RESILIENCE_MAX_MTTR_S`` (default 5 s).

The benchmark also measures what resilience costs when *disabled*: the
per-call overhead of a dormant injection point (no plan installed) and of
an installed plan probing a non-matching point -- the "faults off by
default, zero overhead" claim, in nanoseconds, each the median of
alternating rounds.

Run standalone like the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_resilience.py -q
"""

from __future__ import annotations

import os
import random
import statistics
import time
from typing import List, Tuple

import pytest

from repro.engine import AirSystem
from repro.experiments import report
from repro.faults import FaultPlan, FaultSpec, build_scenario
from repro.faults import runtime as fault_runtime
from repro.faults.chaos import run_chaos
from repro.serving import ServeConfig, ServerHandle, ServingClient

from conftest import write_json_report, write_report

NETWORK, SCALE, SEED = "milan", 0.01, 3
NUM_REGIONS = 8
METHOD = "NR"
WORKERS = 2
#: Duplicate-heavy burst: 60 unique pairs issued twice, so the identity
#: check compares answers across connections and across worker respawns.
NUM_REQUESTS = 120
CLIENT_CONNECTIONS = 4
DEADLINE_MS = 5000.0
SCENARIO = "chaos-smoke"

#: Acceptance floors; CI can tighten or relax through the environment.
MIN_AVAILABILITY = float(os.environ.get("REPRO_RESILIENCE_MIN_AVAILABILITY", "0.99"))
MAX_MTTR_S = float(os.environ.get("REPRO_RESILIENCE_MAX_MTTR_S", "5.0"))

#: Dormant-path overhead budget per ``inject()`` call.  The point of the
#: bound is the *order of magnitude*: a dormant injection point must cost a
#: dict-free attribute load, not a lock or an allocation.
MAX_INJECT_NS = 2000.0
OVERHEAD_CALLS = 200_000
#: Alternating rounds per side of the dormant-path timing (median taken).
INJECT_ROUNDS = 5


def _serve_config() -> ServeConfig:
    return ServeConfig(
        network=NETWORK,
        scale=SCALE,
        seed=SEED,
        regions=NUM_REGIONS,
        methods=(METHOD,),
        workers=WORKERS,
        max_pending=16,
    )


def _pairs(system: AirSystem) -> List[Tuple[int, int]]:
    rng = random.Random(SEED)
    nodes = system.network.node_ids()
    unique = [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(NUM_REQUESTS // 2)
    ]
    return (unique * 2)[:NUM_REQUESTS]


def _inject_overhead_ns(calls: int) -> Tuple[float, float]:
    """Per-call cost of a dormant point: (no plan, non-matching plan).

    Each is the median of :data:`INJECT_ROUNDS` rounds of ``calls`` calls,
    the two sides alternating round by round, so one descheduled round
    cannot decide the bound.
    """
    plan = FaultPlan([FaultSpec("bench.other.point", times=1)], seed=0)
    samples: Tuple[List[float], List[float]] = ([], [])
    try:
        for _ in range(INJECT_ROUNDS):
            for installed, side in ((None, samples[0]), (plan, samples[1])):
                if installed is None:
                    fault_runtime.clear()
                else:
                    fault_runtime.install(installed)
                started = time.perf_counter()
                for _ in range(calls):
                    fault_runtime.inject("bench.dormant")
                side.append((time.perf_counter() - started) / calls * 1e9)
    finally:
        fault_runtime.clear()
    return statistics.median(samples[0]), statistics.median(samples[1])


def test_availability_identity_and_mttr_under_smoke_chaos():
    direct = AirSystem.from_config(_serve_config().experiment_config())
    pairs = _pairs(direct)
    options = direct.default_options.replace(tune_in_offset=0)
    old_fingerprint = direct.network.fingerprint()
    truth = {
        (source, target): direct.query(METHOD, source, target, options=options).distance
        for source, target in set(pairs)
    }

    def reference(fingerprint: str, source: int, target: int):
        if fingerprint != old_fingerprint:
            return None  # a successfully refreshed cycle has no table here
        return truth.get((source, target))

    edges = list(direct.network.edges())[:4]
    updates = [(e.source, e.target, e.weight * 1.7) for e in edges]

    handle = ServerHandle.launch(_serve_config())
    try:
        # Baseline: the identical burst with no plan installed.
        baseline = run_chaos(
            handle.address,
            None,
            pairs,
            method=METHOD,
            concurrency=CLIENT_CONNECTIONS,
            deadline_ms=DEADLINE_MS,
            reference=reference,
        )
        assert baseline.availability == 1.0
        assert baseline.identity_violations == 0

        chaos = run_chaos(
            handle.address,
            build_scenario("smoke", seed=SEED),
            pairs,
            method=METHOD,
            concurrency=CLIENT_CONNECTIONS,
            deadline_ms=DEADLINE_MS,
            refreshes=[updates],
            reference=reference,
        )

        # The daemon must come out of the run healthy and plan-free.
        with ServingClient(handle.address) as client:
            info = client.info()
        assert info["faults"] is None
        assert all(row["alive"] for row in info["workers"])
    finally:
        handle.stop()

    no_plan_ns, non_matching_ns = _inject_overhead_ns(OVERHEAD_CALLS)

    fired = chaos.fault_stats.get("fired") or {}
    degraded = sum(1 for r in chaos.refreshes if r.get("degraded"))
    mttr = chaos.mttr_s
    rows = [
        ["requests ok / total", f"{chaos.ok} / {chaos.requests}"],
        ["availability (floor)", f"{chaos.availability:.4f} ({MIN_AVAILABILITY:g})"],
        ["baseline availability", f"{baseline.availability:.4f}"],
        ["identity violations", chaos.identity_violations],
        ["deadline misses", chaos.deadline_misses],
        ["reconnects", chaos.reconnects],
        ["stale responses", chaos.stale_responses],
        ["worker respawns", chaos.respawns],
        ["MTTR (s, bound)", (f"{mttr:.3f}" if mttr is not None else "-")
         + f" ({MAX_MTTR_S:g})"],
        ["refreshes (degraded)", f"{len(chaos.refreshes)} ({degraded})"],
        ["faults fired", ", ".join(
            f"{point}:{count}" for point, count in sorted(fired.items())
        ) or "-"],
        ["inject ns/call (no plan)", round(no_plan_ns, 1)],
        ["inject ns/call (non-matching plan)", round(non_matching_ns, 1)],
        ["chaos duration (s)", round(chaos.duration_s, 3)],
        ["baseline duration (s)", round(baseline.duration_s, 3)],
    ]
    text = report.format_table(
        ["Quantity", "Value"],
        rows,
        title=(
            f"Resilience: {NUM_REQUESTS} x {METHOD} on "
            f"{direct.network.name} ({direct.network.num_nodes} nodes) under "
            f"'smoke' chaos via {CLIENT_CONNECTIONS} connections"
        ),
    )
    write_report("resilience", text)
    write_json_report(
        "resilience",
        {
            "network": {
                "name": direct.network.name,
                "num_nodes": direct.network.num_nodes,
                "num_edges": direct.network.num_edges,
            },
            "method": METHOD,
            "workers": WORKERS,
            "scenario": "smoke",
            "num_requests": NUM_REQUESTS,
            "deadline_ms": DEADLINE_MS,
            "availability": chaos.availability,
            "min_availability": MIN_AVAILABILITY,
            "identity_violations": chaos.identity_violations,
            "deadline_misses": chaos.deadline_misses,
            "reconnects": chaos.reconnects,
            "stale_responses": chaos.stale_responses,
            "respawns": chaos.respawns,
            "mttr_s": mttr,
            "max_mttr_s": MAX_MTTR_S,
            "refreshes": chaos.refreshes,
            "faults_fired": fired,
            "faults_total_fired": chaos.fault_stats.get("total_fired", 0),
            "inject_ns_no_plan": no_plan_ns,
            "inject_ns_non_matching_plan": non_matching_ns,
            "max_inject_ns": MAX_INJECT_NS,
            "inject_rounds": INJECT_ROUNDS,
            "baseline": {
                "availability": baseline.availability,
                "duration_s": baseline.duration_s,
            },
            "chaos_duration_s": chaos.duration_s,
        },
    )

    # Zero wrong answers, ever: chaos costs latency, never identity.
    assert chaos.identity_violations == 0
    # The smoke kills actually landed and were repaired quickly.
    assert chaos.respawns >= 1
    assert mttr is not None and mttr <= MAX_MTTR_S, (
        f"worst worker recovery took {mttr}s (bound {MAX_MTTR_S:g}s)"
    )
    # The forced refresh failure degraded instead of killing the daemon.
    assert degraded >= 1
    assert chaos.availability >= MIN_AVAILABILITY, (
        f"availability {chaos.availability:.4f} under 'smoke' chaos "
        f"(floor {MIN_AVAILABILITY:g})"
    )
    # Dormant injection points are effectively free.
    assert no_plan_ns <= MAX_INJECT_NS
    assert non_matching_ns <= MAX_INJECT_NS


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
