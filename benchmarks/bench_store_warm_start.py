"""Build/serve split -- cold build vs ``warm_start()`` from a populated store.

Not a table or figure of the paper: the acceptance benchmark for the
build/serve split.  The paper's server "repeatedly transmits identical
broadcast cycles" -- the cycle is a static artifact of ``(network, scheme,
params)`` -- so a production deployment should pay the Table 3
pre-computation once, not on every restart, deploy, or shard spawn.  This
benchmark builds the scheme roster cold over the ~1k-node network, publishes
every build to an :class:`~repro.store.ArtifactStore`, then simulates a
process restart: a fresh :class:`~repro.engine.AirSystem` over a freshly
generated (identical) network calls :meth:`warm_start` and must come up
**>= 5x** faster than the cold build (floor overridable through
``REPRO_STORE_MIN_SPEEDUP`` for noisy CI runners).

A warm start takes ~70 ms, so one slow stretch of a shared host can decide
a single timing.  The benchmark therefore runs ``ROUNDS`` alternating
rounds, each a cold build and a warm start on fresh systems, and asserts
the median of the per-round ratios.

Bit identity is asserted in-bench: for every scheme, a query through the
warm-started instance must match the cold build's answer, path, and
tuning/latency packet counts exactly, and the cycle signatures must be
equal.

SPQ is excluded from the roster: its 1k-node build runs one full Dijkstra
plus a quad-tree construction *per node* (minutes of wall clock), which is
exactly the kind of cost the store amortizes but too slow for a CI smoke
step.  The exclusion is printed in the report rather than silently applied.

Run standalone like the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_store_warm_start.py -q
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Dict, List, Tuple

import pytest

from repro.engine import AirSystem, ArtifactStore
from repro.experiments import ExperimentConfig, report
from repro.network.generators import GeneratorConfig, generate_road_network

from conftest import write_json_report, write_report

#: The 1k-node benchmark network (same generator as the dynamic-updates
#: benchmark; the realized size shrinks slightly because the generator
#: keeps the largest component).
NETWORK_CONFIG = GeneratorConfig(num_nodes=1000, num_edges=2300, seed=31)
NUM_REGIONS = 16
#: Scheme roster the warm start covers (every registered scheme but SPQ).
SCHEMES: List[str] = ["DJ", "NR", "EB", "HiTi", "AF", "LD"]
EXCLUDED = {"SPQ": "per-node Dijkstra + quad-tree build is minutes at 1k nodes"}

#: Local acceptance floor; CI relaxes via REPRO_STORE_MIN_SPEEDUP.
MIN_SPEEDUP = float(os.environ.get("REPRO_STORE_MIN_SPEEDUP", "5.0"))
#: Alternating cold-build / warm-start rounds; the floor applies to the
#: median of their ratios.
ROUNDS = 5

#: Fixed probe query endpoints (node ids are 0..n-1 in generator order).
PROBE_QUERY: Tuple[int, int] = (17, 801)
PROBE_OFFSET = 123


def _config() -> ExperimentConfig:
    return ExperimentConfig(
        network="germany",
        scale=0.05,
        seed=31,
        eb_nr_regions=NUM_REGIONS,
        arcflag_regions=NUM_REGIONS,
        hiti_regions=NUM_REGIONS,
        num_landmarks=4,
    )


def _network():
    network = generate_road_network(NETWORK_CONFIG, name="bench-store-1k")
    network.clear_delta()
    return network


def _probe(system: AirSystem, name: str):
    scheme = system.scheme(name)
    result = scheme.client().query(*PROBE_QUERY, tune_in_offset=PROBE_OFFSET)
    return (
        result.distance,
        tuple(result.path),
        result.metrics.tuning_time_packets,
        result.metrics.access_latency_packets,
    )


def _cold_build(config: ExperimentConfig) -> Tuple[AirSystem, Dict[str, float]]:
    """A fresh system with every scheme built from scratch, no store."""
    system = AirSystem(_network(), config=config)
    # Earlier rounds' garbage is collected up front, as a fresh process
    # would have none, so no timed section pays for another's cycles.
    gc.collect()
    seconds: Dict[str, float] = {}
    for name in SCHEMES:
        started = time.perf_counter()
        system.scheme(name)
        seconds[name] = time.perf_counter() - started
    return system, seconds


def _warm_start(config: ExperimentConfig, store_root) -> Tuple[AirSystem, float]:
    """A fresh system (a restarted process) warm-started from the store."""
    system = AirSystem(_network(), config=config, store=ArtifactStore(store_root))
    gc.collect()
    started = time.perf_counter()
    warm_report = system.warm_start(SCHEMES)
    seconds = time.perf_counter() - started
    assert warm_report.complete, f"missing from store: {warm_report.missing}"
    assert set(warm_report.loaded) == set(SCHEMES)
    info = system.cache_info()
    assert info.disk_hits == len(SCHEMES) and info.disk_misses == 0
    return system, seconds


def test_store_warm_start_speedup(tmp_path_factory):
    store_root = tmp_path_factory.mktemp("artifact-store")
    config = _config()

    # Publish one cold build (not part of either timed path; reported for
    # context).
    cold_system, _ = _cold_build(config)
    store = ArtifactStore(store_root)
    started = time.perf_counter()
    artifact_bytes = 0
    for name in SCHEMES:
        path = store.put(cold_system.scheme(name).artifact())
        artifact_bytes += path.stat().st_size
    publish_seconds = time.perf_counter() - started

    # Alternate cold builds and warm starts, each on a fresh system.
    cold_rounds: List[float] = []
    warm_rounds: List[float] = []
    per_scheme: Dict[str, List[float]] = {name: [] for name in SCHEMES}
    for _ in range(ROUNDS):
        cold_system, cold_seconds = _cold_build(config)
        cold_rounds.append(sum(cold_seconds.values()))
        for name, seconds in cold_seconds.items():
            per_scheme[name].append(seconds)
        warm_system, warm_seconds = _warm_start(config, store_root)
        warm_rounds.append(warm_seconds)
    ratios = [
        cold / warm if warm > 0 else float("inf")
        for cold, warm in zip(cold_rounds, warm_rounds)
    ]
    cold_seconds = {name: statistics.median(values) for name, values in per_scheme.items()}
    cold_total = statistics.median(cold_rounds)
    warm_total = statistics.median(warm_rounds)

    # Bit identity: answers, packet metrics, and cycle layouts must match.
    for name in SCHEMES:
        assert (
            warm_system.scheme(name).cycle.signature()
            == cold_system.scheme(name).cycle.signature()
        ), f"{name}: warm cycle differs from cold build"
        assert _probe(warm_system, name) == _probe(cold_system, name), (
            f"{name}: warm-started scheme answers differently"
        )

    speedup = statistics.median(ratios)
    per_scheme_rows = [
        [name, round(cold_seconds[name], 3)] for name in SCHEMES
    ]
    lines = [
        report.format_table(
            ["Scheme", "Cold build (s)"],
            per_scheme_rows,
            title=(
                f"Store warm start on {cold_system.network.name} "
                f"({cold_system.network.num_nodes} nodes, "
                f"{cold_system.network.num_edges} edges)"
            ),
        ),
        "",
        f"cold build total : {cold_total:8.3f} s (median of {ROUNDS} rounds)",
        f"publish to store : {publish_seconds:8.3f} s "
        f"({artifact_bytes / 1024:.0f} KB, {len(SCHEMES)} artifacts)",
        f"warm_start()     : {warm_total:8.3f} s (median of {ROUNDS} rounds)",
        f"speedup          : {speedup:8.1f}x median round (floor {MIN_SPEEDUP:g}x); "
        "rounds " + " ".join(f"{ratio:.1f}x" for ratio in ratios),
        "",
        "excluded from roster: "
        + "; ".join(f"{name} ({why})" for name, why in EXCLUDED.items()),
    ]
    write_report("store_warm_start", "\n".join(lines))
    write_json_report(
        "store_warm_start",
        {
            "network": {
                "nodes": cold_system.network.num_nodes,
                "edges": cold_system.network.num_edges,
            },
            "schemes": SCHEMES,
            "excluded": EXCLUDED,
            "cold_seconds": {k: round(v, 4) for k, v in cold_seconds.items()},
            "cold_total_seconds": round(cold_total, 4),
            "publish_seconds": round(publish_seconds, 4),
            "artifact_bytes": artifact_bytes,
            "warm_start_seconds": round(warm_total, 4),
            "rounds": ROUNDS,
            "speedup_rounds": [round(ratio, 2) for ratio in ratios],
            "speedup": round(speedup, 2),
            "min_speedup": MIN_SPEEDUP,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm_start() only {speedup:.1f}x faster than a cold build in the "
        f"median of {ROUNDS} rounds (floor {MIN_SPEEDUP:g}x)"
    )
