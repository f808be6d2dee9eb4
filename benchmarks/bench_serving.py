"""Serving daemon -- throughput scaling across workers over one shared index.

Not a table or figure of the paper: the acceptance benchmark for the
broadcast serving daemon.  The paper's server feeds an unbounded client
population from one broadcast cycle; the daemon realizes that as a pool of
worker processes mapping a single shared-memory publication of the index.
Because a served query's cost is dominated by emulated air time (the
``pace_packet_us`` channel pacing -- latency in this model is on-air
packets, not CPU), adding workers must add throughput: this benchmark
keeps pools of 1, 2 and 4 workers up side by side, drives an identical
query burst at each in turn for ``ROUNDS`` rounds, and requires the
median 4-worker throughput to be **>= 2x** the median 1-worker throughput
(floor overridable through ``REPRO_SERVING_MIN_SCALING`` for noisy CI
runners).  A 4-worker burst lasts about 0.2 s, so one scheduling stall on
a shared host could halve a single burst's rate; alternating the pools
and comparing medians lets neither a stall nor a slow minute of the host
decide the verdict.

Two more claims are asserted in-bench rather than taken on faith:

* **Bit identity** -- a sample of served answers (distance plus tuning and
  latency packet counts) must equal a direct in-process
  :class:`~repro.engine.AirSystem` over the same configuration, same
  tune-in offset.
* **Sharing, not copying** -- each worker's ``/proc`` smaps accounting of
  the segment mapping must show the index resident as shared pages with
  (near) zero private-dirty pages; N workers, one physical index.

Launches after the first warm-start from an on-disk artifact store, so the
three pools pay the index build exactly once.

Run standalone like the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Tuple

import pytest

from repro.engine import AirSystem
from repro.experiments import report
from repro.serving import ServeConfig, ServerHandle, ServingClient, run_load

from conftest import write_json_report, write_report

#: ~1k-node evaluation network (germany at this scale realizes ~1000 nodes).
NETWORK, SCALE, SEED = "germany", 0.035, 31
NUM_REGIONS = 16
METHOD = "NR"
#: Worker pool sizes under test.
POOLS: Tuple[int, ...] = (1, 2, 4)
#: Emulated on-air channel time per broadcast packet.  At ~2-4k packets of
#: access latency per query this makes one query tens of milliseconds of
#: air time -- the regime the paper's model describes, and the reason
#: worker count (not CPU count) governs throughput.
PACE_PACKET_US = 15.0
#: The identical burst every pool serves in every round.
NUM_REQUESTS = 96
#: Rounds of bursts, each visiting the pools in turn; throughput is the
#: median over rounds.
ROUNDS = 5
CLIENT_CONNECTIONS = 8
IDENTITY_SAMPLE = 12
TUNE_IN_OFFSET = 0

#: Local acceptance floor; CI can relax via REPRO_SERVING_MIN_SCALING.
MIN_SCALING = float(os.environ.get("REPRO_SERVING_MIN_SCALING", "2.0"))


def _serve_config(workers: int, store_dir: str) -> ServeConfig:
    return ServeConfig(
        network=NETWORK,
        scale=SCALE,
        seed=SEED,
        regions=NUM_REGIONS,
        methods=(METHOD,),
        workers=workers,
        max_pending=32,
        pace_packet_us=PACE_PACKET_US,
        store_dir=store_dir,
    )


def _query_pairs(system: AirSystem) -> List[Tuple[int, int]]:
    rng = random.Random(SEED)
    nodes = system.network.node_ids()
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(NUM_REQUESTS)]


def test_serving_scales_with_workers_and_stays_bit_identical(tmp_path):
    store_dir = str(tmp_path / "store")
    # The reference build also seeds the store the daemon launches from.
    from repro.store import ArtifactStore

    direct = AirSystem.from_config(
        _serve_config(1, store_dir).experiment_config(), store=ArtifactStore(store_dir)
    )
    direct.scheme(METHOD)
    pairs = _query_pairs(direct)
    options = direct.default_options.replace(tune_in_offset=TUNE_IN_OFFSET)

    runs: Dict[int, Dict] = {}
    sharing_rows: List[List] = []
    identity_checked = 0
    handles: Dict[int, ServerHandle] = {}
    try:
        for workers in POOLS:
            handles[workers] = handle = ServerHandle.launch(_serve_config(workers, store_dir))
            with ServingClient(handle.address) as client:
                info = client.info()
                # Bit identity: a served answer equals the direct system's.
                for source, target in pairs[:IDENTITY_SAMPLE]:
                    served = client.query(
                        METHOD, source, target, tune_in_offset=TUNE_IN_OFFSET
                    )
                    expected = direct.query(METHOD, source, target, options=options)
                    assert served["distance"] == expected.distance
                    assert (
                        served["tuning_time_packets"]
                        == expected.metrics.tuning_time_packets
                    )
                    assert (
                        served["access_latency_packets"]
                        == expected.metrics.access_latency_packets
                    )
                    identity_checked += 1
            runs[workers] = {"segment_bytes": info["segment_bytes"], "loads": []}

        # The pools take turns, so a slow stretch of the host falls on all.
        for _ in range(ROUNDS):
            for workers in POOLS:
                load = run_load(
                    handles[workers].address,
                    pairs,
                    method=METHOD,
                    concurrency=CLIENT_CONNECTIONS,
                    tune_in_offset=TUNE_IN_OFFSET,
                )
                assert load.ok == load.requests == NUM_REQUESTS
                assert load.identity_violations == 0
                runs[workers]["loads"].append(load)

        for workers in POOLS:
            with ServingClient(handles[workers].address) as client:
                info = client.info()
            segment_kb = info["segment_bytes"] / 1024.0
            worker_stats = []
            for row in info["workers"]:
                mapping = row.get("segment_mapping")
                worker_stats.append(
                    {
                        "worker": row["worker"],
                        "pid": row["pid"],
                        "rss_kb": row.get("rss_kb"),
                        "segment_mapping": mapping,
                    }
                )
                if mapping is not None:
                    # The proof the index is shared rather than copied: the
                    # mapping's pages are not private-dirty.  (A copied
                    # index would show up as ~segment_kb of private pages.)
                    assert mapping["private_dirty_kb"] <= max(16, segment_kb * 0.1)
                    sharing_rows.append(
                        [
                            workers,
                            row["worker"],
                            round(segment_kb, 1),
                            mapping["rss_kb"],
                            mapping["shared_kb"],
                            mapping["private_dirty_kb"],
                        ]
                    )
            loads = runs[workers].pop("loads")
            # The median round (by throughput) reports wall time and latency.
            median = sorted(loads, key=lambda load: load.qps)[len(loads) // 2]
            runs[workers].update(
                {
                    "qps": median.qps,
                    "qps_rounds": [load.qps for load in loads],
                    "duration_s": median.duration_s,
                    "requests": median.requests,
                    "busy_retries": sum(load.busy_retries for load in loads),
                    "latency_ms": median.latency_ms,
                    "per_worker_responses": median.workers,
                    "workers": worker_stats,
                }
            )
    finally:
        for handle in handles.values():
            handle.stop()

    scaling = runs[POOLS[-1]]["qps"] / runs[POOLS[0]]["qps"]
    rows = [
        [
            workers,
            round(run["qps"], 1),
            round(run["duration_s"], 2),
            round(run["latency_ms"]["p50"], 1),
            round(run["latency_ms"]["p99"], 1),
            run["busy_retries"],
        ]
        for workers, run in sorted(runs.items())
    ]
    text = report.format_table(
        ["Workers", "QPS", "Wall (s)", "p50 (ms)", "p99 (ms)", "Busy retries"],
        rows,
        title=(
            f"Serving throughput: {NUM_REQUESTS} x {METHOD} on "
            f"{direct.network.name} ({direct.network.num_nodes} nodes), "
            f"pace {PACE_PACKET_US:g} us/pkt -> "
            f"{POOLS[0]}->{POOLS[-1]} workers = {scaling:.2f}x "
            f"(floor {MIN_SCALING:g}x; medians of {ROUNDS} alternating rounds)"
        ),
    )
    text += "\n" + report.format_table(
        ["Pool", "Worker", "Segment (KB)", "Mapped RSS (KB)", "Shared (KB)", "Private dirty (KB)"],
        sharing_rows,
        title="Shared-memory accounting (one physical index per pool)",
    )
    write_report("serving", text)
    write_json_report(
        "serving",
        {
            "network": {
                "name": direct.network.name,
                "num_nodes": direct.network.num_nodes,
                "num_edges": direct.network.num_edges,
            },
            "method": METHOD,
            "pace_packet_us": PACE_PACKET_US,
            "num_requests": NUM_REQUESTS,
            "rounds": ROUNDS,
            "client_connections": CLIENT_CONNECTIONS,
            "identity_checked": identity_checked,
            "identity_ok": True,
            "scaling_1_to_4": scaling,
            "min_scaling": MIN_SCALING,
            "pools": {str(workers): run for workers, run in runs.items()},
        },
    )
    assert identity_checked == IDENTITY_SAMPLE * len(POOLS)
    assert scaling >= MIN_SCALING, (
        f"throughput scaled only {scaling:.2f}x from {POOLS[0]} to "
        f"{POOLS[-1]} workers (floor {MIN_SCALING:g}x)"
    )


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q", "-s"]))
