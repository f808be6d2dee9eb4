"""Dynamic networks -- incremental cycle refresh vs full rebuild.

Not a table or figure of the paper: the paper's network is static, while a
production broadcast server must absorb a continuous stream of edge-weight
updates (congestion, closures).  This benchmark applies batches of
single-partition weight updates to a ~1k-node network and measures, per
scheme, the cycle-refresh throughput of

* **full** -- what a static system does after any mutation: rebuild the
  scheme (pre-computation included) from scratch, and
* **incremental** -- the engine's :meth:`AirSystem.refresh` routed through
  :meth:`AirIndexScheme.shadow_rebuild`: build a replacement that shares
  the weight-independent segments and unchanged state with the cached
  scheme and re-runs only the affected parts of the pre-computation.

Each path first absorbs one untimed warm-up batch; every later refresh
and rebuild is timed on its own, and the speedup is the median rebuild
over the median refresh, so one cold or descheduled batch cannot decide
the verdict.  The two paths take turns batch by batch (a refresh, then
the rebuild of the same batch), so a slow stretch of the host hits both
sides alike.  Asserted invariants: the incrementally refreshed cycle is
**bit-identical** to a from-scratch build after every stream (compared via
``BroadcastCycle.signature()``), and the speedup meets a per-scheme floor.
DJ's cycle reuse and HiTi's dirty-block super-edge recompute are strictly
delta-local and carry a fixed >= 5x floor.  NR and EB refresh through the
border-path repair (:meth:`BorderPathPrecomputation.refresh`): a batch
dynamic-SSSP pass per affected border source that settles only the labels
that actually move and re-derives a source's published contributions only
when the change reaches a border chain.  Their floor defaults to 5x and is
CI-tunable through ``REPRO_DYNAMIC_MIN_SPEEDUP`` (same convention as
``REPRO_KERNEL_MIN_SPEEDUP``), so slow shared runners can relax it without
editing the benchmark.

A second test measures the *query stall* an update causes: blocking
:meth:`AirSystem.refresh` makes queries wait for the whole rebuild, while
:meth:`AirSystem.refresh_async` runs the same refresh on a background
thread, so queries keep being served from the superseded snapshot until
the atomic swap.

Run standalone like the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_dynamic_updates.py -q
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Tuple

import pytest

from repro import air
from repro.engine import AirSystem
from repro.experiments import report
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.partitioning.kdtree import build_kdtree_partitioning

from conftest import write_json_report, write_report

#: The 1k-node benchmark network (realized size shrinks slightly because the
#: generator keeps the largest component).
NETWORK_CONFIG = GeneratorConfig(num_nodes=1000, num_edges=2300, seed=31)
NUM_REGIONS = 16
#: The partition whose internal edges the update batches touch.
TARGET_REGION = 5
EDGES_PER_BATCH = 3

#: Acceptance floor for the repair-based NR/EB refresh, overridable for slow
#: CI runners (measured >= 15x locally; 5x is the acceptance criterion).
DYNAMIC_MIN_SPEEDUP = float(os.environ.get("REPRO_DYNAMIC_MIN_SPEEDUP", "5.0"))

#: (scheme, params, batches to time, speedup floor).  Each path also runs
#: one untimed warm-up batch first.
SCHEMES: List[Tuple[str, Dict[str, int], int, float]] = [
    ("DJ", {}, 40, 5.0),
    ("HiTi", {"num_regions": NUM_REGIONS}, 10, 5.0),
    ("NR", {"num_regions": NUM_REGIONS}, 12, DYNAMIC_MIN_SPEEDUP),
    ("EB", {"num_regions": NUM_REGIONS}, 12, DYNAMIC_MIN_SPEEDUP),
]


@pytest.fixture(scope="module")
def network():
    net = generate_road_network(NETWORK_CONFIG, name="bench-dynamic-1k")
    net.clear_delta()
    return net


@pytest.fixture(scope="module")
def update_batches(network):
    """Alternating congest/restore batches confined to one kd partition."""
    partitioning = build_kdtree_partitioning(network, NUM_REGIONS)
    internal = sorted(
        {
            (edge.source, edge.target)
            for edge in network.edges()
            if partitioning.region_of(edge.source) == TARGET_REGION
            and partitioning.region_of(edge.target) == TARGET_REGION
        }
    )
    assert len(internal) >= EDGES_PER_BATCH
    base = {pair: network.edge_weight(*pair) for pair in internal}
    # One hot corridor, rush-hour style: the same edges congest and recover
    # through a factor schedule, so every batch is a genuine change and the
    # workload matches what the congestion-ramp stream generator emits.
    pairs = internal[:EDGES_PER_BATCH]
    factors = [1.5, 2.5, 4.0, 2.0, 1.0, 3.0]
    batches: List[List[Tuple[int, int, float]]] = []
    for index in range(1 + max(count for _, _, count, _ in SCHEMES)):
        factor = factors[index % len(factors)]
        batches.append([(s, t, base[(s, t)] * factor) for s, t in pairs])
    return batches


def test_dynamic_updates_incremental_vs_full(network, update_batches):
    rows = []
    failures = []
    for name, params, num_batches, floor in SCHEMES:
        # The first batch warms each path up untimed.
        batches = update_batches[: 1 + num_batches]

        # Incremental path: one warm AirSystem, refresh() per batch.  Full
        # path: rebuild the scheme from scratch after every batch.  The two
        # take turns batch by batch.
        inc_network = network.copy()
        inc_network.clear_delta()
        system = AirSystem(inc_network)
        system.scheme(name, **params)
        inc_seconds: List[float] = []
        full_network = network.copy()
        full_network.clear_delta()
        full_seconds: List[float] = []
        scratch = None
        for batch in batches:
            inc_network.apply_updates(batch)
            started = time.perf_counter()
            refresh = system.refresh()
            inc_seconds.append(time.perf_counter() - started)
            assert refresh.incremental == (air.canonical_name(name),)

            full_network.apply_updates(batch)
            full_network.clear_delta()
            started = time.perf_counter()
            full_network.fingerprint()  # the cache re-key both paths pay
            scratch = air.create(name, full_network, **params)
            scratch.cycle
            full_seconds.append(time.perf_counter() - started)

        # Bit-identity: the incrementally maintained cycle equals the final
        # from-scratch build (same mutated network on both sides).
        refreshed = system.scheme(name, **params)
        assert refreshed.cycle.signature() == scratch.cycle.signature(), (
            f"{name}: incremental cycle differs from a from-scratch rebuild"
        )
        assert refreshed.refresh_count == len(batches)

        inc_median = statistics.median(inc_seconds[1:])
        full_median = statistics.median(full_seconds[1:])
        inc_per_sec = 1.0 / inc_median
        full_per_sec = 1.0 / full_median
        speedup = full_median / inc_median
        rows.append(
            [
                air.canonical_name(name),
                num_batches,
                round(full_median * 1000.0, 2),
                round(inc_median * 1000.0, 2),
                round(full_per_sec, 1),
                round(inc_per_sec, 1),
                round(speedup, 1),
                "bit-identical",
            ]
        )
        if speedup < floor:
            failures.append(
                f"{name}: the median incremental refresh is only {speedup:.2f}x "
                f"faster than the median full rebuild (floor {floor}x)"
            )

    table = report.format_table(
        [
            "Scheme",
            "Batches",
            "Full p50 (ms)",
            "Incremental p50 (ms)",
            "Full (refresh/s)",
            "Incremental (refresh/s)",
            "Speedup",
            "Cycle check",
        ],
        rows,
        title=(
            f"Incremental vs full cycle refresh -- {network.name} "
            f"({network.num_nodes} nodes, {network.num_edges} edges, "
            f"{EDGES_PER_BATCH}-edge batches inside one of {NUM_REGIONS} regions)"
        ),
    )
    write_report("dynamic_updates", table)
    write_json_report(
        "dynamic_updates",
        {
            "network": {
                "nodes": network.num_nodes,
                "edges": network.num_edges,
                "regions": NUM_REGIONS,
                "edges_per_batch": EDGES_PER_BATCH,
            },
            "min_speedup_floor": DYNAMIC_MIN_SPEEDUP,
            "by_scheme": [
                {
                    "scheme": row[0],
                    "batches": row[1],
                    "full_ms_per_refresh": row[2],
                    "incremental_ms_per_refresh": row[3],
                    "speedup": row[6],
                    "cycles_bit_identical": True,
                }
                for row in rows
            ],
        },
    )

    assert not failures, "; ".join(failures)


def test_refresh_async_stall_vs_blocking(network, update_batches):
    """Query stall while an update lands: blocking refresh vs shadow swap.

    Blocking :meth:`AirSystem.refresh` rebuilds the cached schemes in the
    caller's thread -- any query issued after ``apply_updates`` waits for
    the whole refresh, so its end-to-end stall is the refresh duration plus
    one service time.  :meth:`AirSystem.refresh_async` rebuilds into a
    shadow set while queries keep being served from the superseded
    snapshot, so the worst in-flight query latency stays near the baseline.

    Both modes run the same congest/recover batches on a system caching NR
    *and* EB; per round we record the stall and assert (on medians, to damp
    scheduler noise) that the async path stalls queries less than the
    blocking path.  Snapshot consistency is asserted too: every query
    answered during an async refresh equals either the pre-update or the
    post-update distance, never a torn intermediate.
    """
    params = {"num_regions": NUM_REGIONS}
    net = network.copy()
    net.clear_delta()
    system = AirSystem(net)
    system.scheme("NR", **params)
    system.scheme("EB", **params)

    # A query pair with a finite answer, far apart in id space.
    node_ids = net.node_ids()
    source = node_ids[0]
    target = next(
        t
        for t in node_ids[::-1]
        if t != source and system.query("NR", source, t, **params).found
    )

    def query_once() -> Tuple[float, float]:
        started = time.perf_counter()
        result = system.query("NR", source, target, **params)
        return time.perf_counter() - started, result.distance

    baseline_s = sorted(query_once()[0] for _ in range(20))[10]

    rounds = 4
    blocking_stall_ms: List[float] = []
    for batch in update_batches[:rounds]:
        net.apply_updates(batch)
        started = time.perf_counter()
        system.refresh()
        refresh_s = time.perf_counter() - started
        # What a query queued behind the blocking refresh experiences.
        blocking_stall_ms.append((refresh_s + baseline_s) * 1000.0)

    async_stall_ms: List[float] = []
    for batch in update_batches[rounds : 2 * rounds]:
        pre = system.query("NR", source, target, **params).distance
        net.apply_updates(batch)
        handle = system.refresh_async()
        worst_s, answers = 0.0, []
        while True:
            finished = handle.done
            elapsed, distance = query_once()
            worst_s = max(worst_s, elapsed)
            answers.append(distance)
            if finished:
                break
        handle.wait(timeout=120.0)
        post = system.query("NR", source, target, **params).distance
        for distance in answers:
            assert distance in (pre, post), (
                "query served during refresh_async returned a torn distance"
            )
        async_stall_ms.append(worst_s * 1000.0)

    blocking_median = sorted(blocking_stall_ms)[rounds // 2]
    async_median = sorted(async_stall_ms)[rounds // 2]

    table = report.format_table(
        ["Mode", "Stall p50 (ms)", "Stall max (ms)", "Rounds"],
        [
            [
                "blocking refresh()",
                round(blocking_median, 2),
                round(max(blocking_stall_ms), 2),
                rounds,
            ],
            [
                "refresh_async()",
                round(async_median, 2),
                round(max(async_stall_ms), 2),
                rounds,
            ],
        ],
        title=(
            f"Worst query stall per update batch -- {net.name}, NR+EB cached, "
            f"baseline query {baseline_s * 1000.0:.2f} ms"
        ),
    )
    write_report("dynamic_updates_async", table)
    write_json_report(
        "dynamic_updates_async",
        {
            "baseline_query_ms": round(baseline_s * 1000.0, 3),
            "rounds": rounds,
            "blocking_stall_ms": {
                "p50": round(blocking_median, 3),
                "max": round(max(blocking_stall_ms), 3),
            },
            "async_stall_ms": {
                "p50": round(async_median, 3),
                "max": round(max(async_stall_ms), 3),
            },
            "stall_reduction": round(blocking_median / async_median, 1)
            if async_median
            else None,
        },
    )

    assert async_median < blocking_median, (
        f"refresh_async stalled queries for {async_median:.2f} ms (median), "
        f"not less than the blocking refresh's {blocking_median:.2f} ms"
    )
