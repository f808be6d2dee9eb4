"""Command-line interface.

The sub-commands cover the common ways of poking at the system without
writing code (installed as the ``repro`` console script; ``python -m
repro`` works identically)::

    repro schemes
    repro cycle    --network germany --scale 0.02 --method NR
    repro query    --network germany --scale 0.02 --method NR --queries 5
    repro compare  --network milan   --scale 0.02 --methods NR,EB,DJ
    repro fleet    --network germany --scale 0.02 --method NR --devices 500
    repro dynamic  --network germany --scale 0.02 --method NR --steps 6
    repro store    --dir /var/cache/repro build --network germany --scale 0.02
    repro chaos    --socket /tmp/repro-air.sock --scenario smoke --requests 200
    repro ingest   --edges USA-road-d.NY.gr --nodes USA-road-d.NY.co --out ny-table

* ``schemes`` -- list every registered air-index scheme with its parameters
  and defaults, straight from the registry.
* ``cycle``   -- build one scheme and print its broadcast-cycle statistics
  (Table 1 style row).
* ``query``   -- run a few random on-air queries through one scheme's client
  and print the per-query performance factors.
* ``compare`` -- run the same workload through several methods and print the
  averaged comparison (Figure 10 style row per method).
* ``fleet``   -- simulate a population of devices sharing one broadcast
  cycle (scenario-generated queries, staggered tune-ins, optional loss) and
  print percentile latency/tuning/energy aggregates.
* ``dynamic`` -- replay an edge-weight update stream (congestion ramp or
  random closures) against one scheme, refreshing the cycle incrementally
  between device waves, and print the per-step refresh/answer statistics.
* ``store``   -- manage an on-disk artifact store (the build/serve split):
  ``build`` pre-computes schemes into it, ``ls`` lists its contents,
  ``verify`` checksum-verifies every artifact (quarantining corrupted
  ones; ``--repair`` additionally sweeps abandoned staging files and
  rebuilds the quarantined schemes in the same pass), ``gc`` enforces a
  byte cap / purges the quarantine, ``prune``
  drops artifacts by network fingerprint (prefixes accepted), and
  ``stats`` prints the store's hit/miss/occupancy counters.
* ``serve``   -- run the broadcast serving daemon: build the configured
  schemes once, publish them into a shared-memory segment and serve
  query/batch/fleet/refresh requests from a pool of worker processes.
* ``bench-client`` -- drive a running daemon with a query burst and print
  client-side throughput and latency percentiles.
* ``chaos``   -- run a named, seeded fault scenario (worker kills, frame
  corruption, refresh failures, ...) against a *running* daemon and print
  what clients experienced: availability of in-deadline requests,
  reconnects, staleness exposure, bit-identity violations and worker MTTR.
  Exits non-zero on any identity violation or (with
  ``--min-availability``) an availability shortfall.
* ``ingest``  -- stream a DIMACS ``.gr``/``.co`` pair or an edge-list CSV
  into a columnar on-disk edge table (O(chunk) memory, ``file:line``
  validation errors); ``--build`` additionally compiles the CSR snapshot
  straight from the table -- no dict network -- and answers a sanity
  query over it.

Every command constructs its schemes through an
:class:`~repro.engine.system.AirSystem`, so the set of accepted ``--method``
values is exactly ``air.available_schemes()`` -- a newly registered scheme
shows up here without touching this module.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional, Sequence

from repro import air
from repro.broadcast.device import CHANNEL_2MBPS, CHANNEL_384KBPS, J2ME_CLAMSHELL
from repro.dynamic import UPDATE_STREAMS, simulate_update_stream
from repro.engine import AirSystem, ClientOptions
from repro.experiments import FLEET_SCENARIOS, ExperimentConfig, QueryWorkload, report
from repro.network import datasets

__all__ = ["main", "build_parser"]


def _scheme_name(value: str) -> str:
    """Argparse type resolving a case-insensitive scheme name."""
    try:
        return air.canonical_name(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _scheme_list(value: str) -> List[str]:
    """Argparse type for a comma-separated scheme list."""
    return [_scheme_name(part.strip()) for part in value.split(",") if part.strip()]


def _positive_int(value: str) -> int:
    """Argparse type for counts that must be >= 1."""
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return parsed


def _scenario_names() -> List[str]:
    from repro.faults import scenario_names

    return scenario_names()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Shortest path computation on air indexes (VLDB 2010) -- reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    scheme_names = ", ".join(air.available_schemes())

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--network",
            default="germany",
            choices=datasets.available(),
            help="paper network to instantiate (synthetic stand-in)",
        )
        sub.add_argument(
            "--scale", type=float, default=0.02, help="fraction of the paper's network size"
        )
        sub.add_argument("--seed", type=int, default=7, help="generator / workload seed")
        sub.add_argument(
            "--regions", type=int, default=16, help="regions for EB/NR/ArcFlag/HiTi"
        )
        sub.add_argument("--landmarks", type=int, default=4, help="landmarks for LD")

    subparsers.add_parser("schemes", help="list registered schemes and their parameters")

    cycle = subparsers.add_parser("cycle", help="print broadcast cycle statistics")
    add_common(cycle)
    cycle.add_argument(
        "--method", default="NR", type=_scheme_name, help=f"scheme ({scheme_names})"
    )

    query = subparsers.add_parser("query", help="run on-air queries through one scheme")
    add_common(query)
    query.add_argument(
        "--method", default="NR", type=_scheme_name, help=f"scheme ({scheme_names})"
    )
    query.add_argument("--queries", type=int, default=3, help="number of random queries")
    query.add_argument("--loss-rate", type=float, default=0.0, help="packet loss probability")
    query.add_argument(
        "--memory-bound",
        action="store_true",
        help="use the Section 6.1 super-edge client (EB/NR only)",
    )

    compare = subparsers.add_parser("compare", help="compare several methods on one workload")
    add_common(compare)
    compare.add_argument(
        "--methods",
        default="NR,EB,DJ",
        type=_scheme_list,
        help="comma-separated method list",
    )
    compare.add_argument("--queries", type=int, default=8, help="number of random queries")
    compare.add_argument("--loss-rate", type=float, default=0.0, help="packet loss probability")

    fleet = subparsers.add_parser(
        "fleet", help="simulate a device population sharing one broadcast cycle"
    )
    add_common(fleet)
    fleet.add_argument(
        "--method", default="NR", type=_scheme_name, help=f"scheme ({scheme_names})"
    )
    fleet.add_argument("--devices", type=_positive_int, default=500, help="fleet size")
    fleet.add_argument(
        "--scenario",
        default="rush-hour",
        choices=sorted(FLEET_SCENARIOS),
        help="device population generator",
    )
    fleet.add_argument("--loss-rate", type=float, default=0.0, help="packet loss probability")
    fleet.add_argument(
        "--concurrency",
        type=_positive_int,
        default=1,
        help=(
            "worker threads (per-device answers/packet metrics are "
            "bit-identical for every value; wall-clock fields vary)"
        ),
    )

    dynamic = subparsers.add_parser(
        "dynamic",
        help="replay an edge-weight update stream with incremental cycle refresh",
    )
    add_common(dynamic)
    dynamic.add_argument(
        "--method", default="NR", type=_scheme_name, help=f"scheme ({scheme_names})"
    )
    dynamic.add_argument(
        "--stream",
        default="congestion",
        choices=sorted(UPDATE_STREAMS),
        help="update stream generator (rush-hour congestion ramp or random closures)",
    )
    dynamic.add_argument(
        "--steps", type=_positive_int, default=6, help="update batches to replay"
    )
    dynamic.add_argument(
        "--devices", type=_positive_int, default=100, help="devices tuning in per step"
    )
    dynamic.add_argument(
        "--scenario",
        default="trickle",
        choices=sorted(FLEET_SCENARIOS),
        help="device population generator for each wave",
    )
    dynamic.add_argument("--loss-rate", type=float, default=0.0, help="packet loss probability")
    dynamic.add_argument(
        "--concurrency", type=_positive_int, default=1, help="worker threads per wave"
    )

    store = subparsers.add_parser(
        "store", help="manage the on-disk artifact store (build/serve split)"
    )
    store.add_argument("--dir", required=True, help="store root directory")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_build = store_sub.add_parser(
        "build", help="pre-compute scheme artifacts into the store"
    )
    add_common(store_build)
    store_build.add_argument(
        "--methods",
        default=",".join(air.available_schemes()),
        type=_scheme_list,
        help="comma-separated method list (default: every registered scheme)",
    )
    store_sub.add_parser("ls", help="list stored artifacts")
    store_verify = store_sub.add_parser(
        "verify", help="checksum-verify every artifact (exit 1 if any corrupt)"
    )
    add_common(store_verify)
    store_verify.add_argument(
        "--repair",
        action="store_true",
        help=(
            "after quarantining, sweep abandoned staging files and rebuild "
            "the --methods schemes so the store is whole again (exit 0 once "
            "a re-verify comes back clean)"
        ),
    )
    store_verify.add_argument(
        "--methods",
        default=",".join(air.available_schemes()),
        type=_scheme_list,
        help="schemes to rebuild under --repair (default: every registered scheme)",
    )
    store_gc = store_sub.add_parser(
        "gc", help="evict least-recently-used artifacts down to a byte cap"
    )
    store_gc.add_argument(
        "--max-bytes", type=int, default=None, help="byte cap to enforce"
    )
    store_gc.add_argument(
        "--purge-quarantine",
        action="store_true",
        help="also delete quarantined (corrupt) files",
    )
    store_prune = store_sub.add_parser(
        "prune", help="drop artifacts built over the given network fingerprints"
    )
    store_prune.add_argument(
        "--fingerprints",
        required=True,
        help="comma-separated network fingerprints (unique prefixes accepted)",
    )
    store_sub.add_parser("stats", help="print hit/miss/occupancy counters")

    serve = subparsers.add_parser(
        "serve", help="run the broadcast serving daemon (shared-memory worker pool)"
    )
    add_common(serve)
    serve.add_argument(
        "--methods",
        default="NR",
        type=_scheme_list,
        help="comma-separated schemes to build and serve",
    )
    serve.add_argument("--workers", type=_positive_int, default=2, help="worker processes")
    serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=32,
        help="per-worker in-flight bound (backpressure)",
    )
    serve.add_argument(
        "--pace-packet-us",
        type=float,
        default=0.0,
        help="emulated on-air microseconds per broadcast packet",
    )
    serve.add_argument(
        "--routing",
        default="round_robin",
        choices=["round_robin", "region"],
        help="request routing policy",
    )
    serve.add_argument("--socket", default=None, help="unix socket path to listen on")
    serve.add_argument(
        "--port", type=int, default=None, help="TCP port instead of a unix socket (0=ephemeral)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument(
        "--store-dir", default=None, help="artifact store for build warm starts"
    )

    bench = subparsers.add_parser(
        "bench-client", help="drive a running serving daemon with a query burst"
    )
    add_common(bench)
    bench.add_argument(
        "--method", default="NR", type=_scheme_name, help=f"scheme ({scheme_names})"
    )
    bench.add_argument("--socket", default=None, help="daemon's unix socket path")
    bench.add_argument("--port", type=int, default=None, help="daemon's TCP port")
    bench.add_argument("--host", default="127.0.0.1", help="daemon's TCP host")
    bench.add_argument(
        "--requests", type=_positive_int, default=100, help="queries to issue"
    )
    bench.add_argument(
        "--concurrency", type=_positive_int, default=4, help="client connections"
    )
    bench.add_argument(
        "--shutdown",
        action="store_true",
        help="send a shutdown request once the burst completes",
    )

    chaos = subparsers.add_parser(
        "chaos", help="run a seeded fault scenario against a running serving daemon"
    )
    add_common(chaos)
    chaos.add_argument(
        "--method", default="NR", type=_scheme_name, help=f"scheme ({scheme_names})"
    )
    chaos.add_argument("--socket", default=None, help="daemon's unix socket path")
    chaos.add_argument("--port", type=int, default=None, help="daemon's TCP port")
    chaos.add_argument("--host", default="127.0.0.1", help="daemon's TCP host")
    chaos.add_argument(
        "--scenario",
        default="smoke",
        choices=_scenario_names(),
        help="named fault scenario (seeded by --seed)",
    )
    chaos.add_argument(
        "--requests", type=_positive_int, default=200, help="queries to issue"
    )
    chaos.add_argument(
        "--concurrency", type=_positive_int, default=4, help="client connections"
    )
    chaos.add_argument(
        "--deadline-ms",
        type=float,
        default=2000.0,
        help="end-to-end budget per request (busy retries and reconnects included)",
    )
    chaos.add_argument(
        "--refreshes",
        type=int,
        default=1,
        help="refresh batches to fire mid-run (0 disables)",
    )
    chaos.add_argument(
        "--min-availability",
        type=float,
        default=None,
        help="fail (exit 1) if in-deadline availability drops below this fraction",
    )

    ingest = subparsers.add_parser(
        "ingest", help="import a DIMACS or CSV network into a columnar edge table"
    )
    ingest.add_argument(
        "--edges", required=True, help="edge input: DIMACS .gr or edge-list .csv"
    )
    ingest.add_argument(
        "--nodes",
        default=None,
        help="coordinate input: DIMACS .co or node-list .csv (optional)",
    )
    ingest.add_argument(
        "--format",
        dest="input_format",
        choices=["dimacs", "csv"],
        default=None,
        help="input format (default: inferred from the --edges extension)",
    )
    ingest.add_argument("--out", required=True, help="columnar table output directory")
    ingest.add_argument("--name", default=None, help="table name (default: file stem)")
    ingest.add_argument(
        "--chunk-rows",
        type=_positive_int,
        default=None,
        help="rows per on-disk chunk (bounds importer memory)",
    )
    ingest.add_argument(
        "--delimiter", default=",", help="CSV field delimiter (csv format only)"
    )
    ingest.add_argument(
        "--parquet",
        action="store_true",
        help="write Parquet chunks instead of .npz (requires pyarrow)",
    )
    ingest.add_argument(
        "--build",
        action="store_true",
        help="also compile the CSR snapshot from the table and run a sanity query",
    )
    ingest.add_argument("--seed", type=int, default=7, help="sanity query seed")
    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(
        network=args.network,
        scale=args.scale,
        seed=args.seed,
        eb_nr_regions=args.regions,
        arcflag_regions=args.regions,
        hiti_regions=args.regions,
        num_landmarks=args.landmarks,
    )


def _system(args: argparse.Namespace) -> AirSystem:
    return AirSystem.from_config(_config(args))


def _command_schemes(args: argparse.Namespace, out) -> int:
    rows = []
    for name in air.available_schemes():
        info = air.get_scheme(name)
        defaults = info.default_params()
        params = ", ".join(f"{key}={value}" for key, value in defaults.items()) or "-"
        rows.append(
            [
                name,
                info.cls.__name__,
                params,
                "yes" if info.comparison else "-",
                info.description,
            ]
        )
    print(
        report.format_table(
            ["Name", "Class", "Parameters (defaults)", "Comparison", "Description"],
            rows,
            title="Registered air-index schemes",
        ),
        file=out,
    )
    return 0


def _command_cycle(args: argparse.Namespace, out) -> int:
    system = _system(args)
    network = system.network
    scheme = system.scheme(args.method)
    metrics = scheme.server_metrics()
    rows = [
        ["network", f"{network.name} ({network.num_nodes} nodes, {network.num_edges} edges)"],
        ["method", scheme.short_name],
        ["cycle packets", metrics.cycle_packets],
        ["cycle bytes", metrics.cycle_bytes],
        ["index packets", metrics.index_packets],
        ["data packets", metrics.data_packets],
        ["cycle seconds @2Mbps", round(metrics.cycle_seconds(CHANNEL_2MBPS), 3)],
        ["cycle seconds @384Kbps", round(metrics.cycle_seconds(CHANNEL_384KBPS), 3)],
        ["pre-computation seconds", round(metrics.precomputation_seconds, 3)],
    ]
    print(report.format_table(["Quantity", "Value"], rows, title="Broadcast cycle"), file=out)
    return 0


def _command_query(args: argparse.Namespace, out) -> int:
    system = _system(args)
    network = system.network
    scheme = system.scheme(args.method)
    memory_bound = args.memory_bound and scheme.supports_memory_bound
    options = ClientOptions(
        device=J2ME_CLAMSHELL,
        memory_bound=memory_bound,
        loss_rate=args.loss_rate,
        loss_seed=args.seed,
    )
    client = scheme.client(options=options)
    channel = scheme.channel(loss_rate=args.loss_rate, seed=args.seed)

    rng = random.Random(args.seed)
    nodes = network.node_ids()
    rows = []
    for _ in range(max(1, args.queries)):
        source, target = rng.choice(nodes), rng.choice(nodes)
        result = client.query(source, target, channel=channel)
        metrics = result.metrics
        rows.append(
            [
                f"{source}->{target}",
                round(result.distance, 1) if result.found else "unreachable",
                metrics.tuning_time_packets,
                metrics.access_latency_packets,
                round(metrics.peak_memory_bytes / 1024.0, 1),
                round(metrics.cpu_seconds * 1000.0, 1),
                round(metrics.energy_joules(J2ME_CLAMSHELL, CHANNEL_2MBPS), 4),
            ]
        )
    print(
        report.format_table(
            ["Query", "Distance", "Tuning (pkt)", "Latency (pkt)", "Memory (KB)", "CPU (ms)", "Energy (J)"],
            rows,
            title=f"{scheme.short_name} on-air queries ({network.name}, loss={args.loss_rate:g})",
        ),
        file=out,
    )
    return 0


def _command_compare(args: argparse.Namespace, out) -> int:
    system = _system(args)
    network = system.network
    workload = QueryWorkload(network, args.queries, seed=args.seed)
    runs = system.compare(args.methods, workload, loss_rate=args.loss_rate)
    rows = []
    for method in args.methods:
        run = runs[method]
        mean = run.mean
        rows.append(
            [
                method,
                run.server.cycle_packets,
                mean.tuning_time_packets,
                mean.access_latency_packets,
                round(mean.peak_memory_bytes / 1024.0, 1),
                round(mean.cpu_seconds * 1000.0, 1),
                run.mismatches,
            ]
        )
    print(
        report.format_table(
            ["Method", "Cycle (pkt)", "Tuning (pkt)", "Latency (pkt)", "Memory (KB)", "CPU (ms)", "Mismatches"],
            rows,
            title=(
                f"Method comparison on {network.name} "
                f"({len(workload)} queries, loss={args.loss_rate:g})"
            ),
        ),
        file=out,
    )
    return 0


def _command_fleet(args: argparse.Namespace, out) -> int:
    system = _system(args)
    network = system.network
    scenario = FLEET_SCENARIOS[args.scenario]
    devices = scenario(network, args.devices, seed=args.seed, loss_rate=args.loss_rate)
    run = system.simulate_fleet(
        args.method, devices, seed=args.seed, concurrency=args.concurrency
    )
    latency = run.latency_percentiles()
    tuning = run.tuning_percentiles()
    rows = [
        ["network", f"{network.name} ({network.num_nodes} nodes, {network.num_edges} edges)"],
        ["method / cycle packets", f"{run.scheme} / {run.cycle_packets}"],
        ["devices", run.num_devices],
        ["probe sessions", run.probes],
        ["replayed / native", f"{run.replays} / {run.natives}"],
        ["devices per second", round(run.devices_per_second, 1)],
        ["latency p50/p90/p99 (pkt)", "/".join(str(int(latency[q])) for q in (50, 90, 99))],
        ["tuning  p50/p90/p99 (pkt)", "/".join(str(int(tuning[q])) for q in (50, 90, 99))],
        ["latency p99 @2Mbps (s)", round(
            CHANNEL_2MBPS.packets_to_seconds(latency[99]), 3
        )],
        ["mean energy (J)", round(run.mean_energy_joules(J2ME_CLAMSHELL, CHANNEL_2MBPS), 4)],
        ["mean lost packets", round(run.mean("lost_packets"), 2)],
        ["mismatches", run.mismatches],
    ]
    print(
        report.format_table(
            ["Quantity", "Value"],
            rows,
            title=(
                f"Fleet simulation: {args.scenario} x{run.num_devices} on "
                f"{run.scheme} (loss={args.loss_rate:g})"
            ),
        ),
        file=out,
    )
    return 0


def _command_dynamic(args: argparse.Namespace, out) -> int:
    system = _system(args)
    network = system.network
    stream = UPDATE_STREAMS[args.stream](network, steps=args.steps, seed=args.seed)
    run = simulate_update_stream(
        system,
        args.method,
        stream,
        devices_per_step=args.devices,
        scenario=args.scenario,
        seed=args.seed,
        loss_rate=args.loss_rate,
        concurrency=args.concurrency,
    )
    rows = []
    for step in run.steps:
        refresh = step.refresh
        mode = (
            "incremental"
            if refresh.incremental
            else "full" if refresh.rebuilt else "none"
        )
        latency = step.fleet.latency_percentiles((99,))[99]
        rows.append(
            [
                step.batch.step,
                step.batch.label,
                len(step.batch),
                mode,
                round(refresh.seconds * 1000.0, 1),
                step.fleet.cycle_packets,
                int(latency),
                step.fleet.mismatches,
            ]
        )
    print(
        report.format_table(
            [
                "Step",
                "Batch",
                "Updates",
                "Refresh",
                "Refresh (ms)",
                "Cycle (pkt)",
                "Latency p99 (pkt)",
                "Mismatches",
            ],
            rows,
            title=(
                f"Dynamic stream '{run.stream}' x{len(run.steps)} steps on {run.scheme} "
                f"({network.name}, {args.devices} devices/step, loss={args.loss_rate:g})"
            ),
        ),
        file=out,
    )
    summary = [
        ["devices served", run.num_devices],
        ["incremental refreshes / full rebuilds", f"{run.incremental_refreshes} / {run.full_rebuilds}"],
        ["total refresh seconds", round(run.refresh_seconds, 3)],
        ["fingerprint lineage depth", len(system.lineage())],
        ["mismatches vs mutated-network Dijkstra", run.mismatches],
    ]
    print(report.format_table(["Quantity", "Value"], summary, title="Stream summary"), file=out)
    return 0


def _command_store(args: argparse.Namespace, out) -> int:
    from repro.store import ArtifactStore

    store = ArtifactStore(args.dir)
    if args.store_command == "build":
        system = AirSystem.from_config(_config(args), store=store)
        network = system.network
        rows = []
        for method in args.methods:
            hits_before = store.hits
            scheme = system.scheme(method)
            # scheme() already published (or restored) the artifact; read
            # its on-disk size instead of re-encoding the state to measure.
            path = store.object_path(
                method, scheme._artifact_params(), network.fingerprint()
            )
            rows.append(
                [
                    method,
                    scheme.cycle.total_packets,
                    round(path.stat().st_size / 1024.0, 1) if path.exists() else "-",
                    "restored" if store.hits > hits_before else "built",
                ]
            )
        print(
            report.format_table(
                ["Method", "Cycle (pkt)", "Artifact (KB)", "Source"],
                rows,
                title=(
                    f"Store build: {network.name} ({network.num_nodes} nodes) "
                    f"-> {store.root}"
                ),
            ),
            file=out,
        )
        return 0
    if args.store_command == "ls":
        entries = store.entries()
        rows = [
            [
                entry.scheme,
                ", ".join(f"{k}={v}" for k, v in sorted(entry.params.items())) or "-",
                entry.network_fingerprint[:12],
                entry.format_version,
                round(entry.size_bytes / 1024.0, 1),
            ]
            for entry in entries
        ]
        total_kb = round(sum(e.size_bytes for e in entries) / 1024.0, 1)
        print(
            report.format_table(
                ["Scheme", "Parameters", "Network", "Fmt", "Size (KB)"],
                rows,
                title=f"Artifact store {store.root} ({len(entries)} entries, {total_kb} KB)",
            ),
            file=out,
        )
        return 0
    if args.store_command == "prune":
        prefixes = [part.strip() for part in args.fingerprints.split(",") if part.strip()]
        known = {entry.network_fingerprint for entry in store.entries()}
        doomed = {
            fingerprint
            for fingerprint in known
            if any(fingerprint.startswith(prefix) for prefix in prefixes)
        }
        removed = store.prune(doomed)
        rows = [[fingerprint[:12], "pruned"] for fingerprint in sorted(doomed)] or [
            ["-", "no matching artifacts"]
        ]
        print(
            report.format_table(
                ["Network", "Outcome"],
                rows,
                title=f"Store prune: {store.root} ({removed} objects removed)",
            ),
            file=out,
        )
        return 0
    if args.store_command == "stats":
        rows = [[key, value] for key, value in store.stats().items()]
        print(
            report.format_table(
                ["Quantity", "Value"], rows, title=f"Store stats: {store.root}"
            ),
            file=out,
        )
        return 0
    if args.store_command == "verify":
        outcome = store.verify()
        rows = [[key, value] for key, value in outcome.items()]
        if not args.repair:
            print(
                report.format_table(
                    ["Quantity", "Value"], rows, title=f"Store verify: {store.root}"
                ),
                file=out,
            )
            return 1 if outcome["quarantined"] else 0
        # Quarantine-and-rebuild in one pass: sweep writer debris, then let
        # a store-backed system restore-or-rebuild each scheme (intact
        # artifacts are a cheap restore; quarantined/missing ones are built
        # and re-published).  A final verify proves the store is whole.
        rows.append(["staging swept", store.clean_staging()])
        system = AirSystem.from_config(_config(args), store=store)
        for method in args.methods:
            writes_before = store.writes
            system.scheme(method)
            rows.append(
                [
                    f"repair {method}",
                    "rebuilt" if store.writes > writes_before else "intact",
                ]
            )
        after = store.verify()
        rows.append(["post-repair quarantined", after["quarantined"]])
        print(
            report.format_table(
                ["Quantity", "Value"],
                rows,
                title=f"Store verify --repair: {store.root}",
            ),
            file=out,
        )
        return 1 if after["quarantined"] else 0
    outcome = store.gc(max_bytes=args.max_bytes, purge_quarantine=args.purge_quarantine)
    rows = [[key, value] for key, value in outcome.items()]
    print(
        report.format_table(["Quantity", "Value"], rows, title=f"Store gc: {store.root}"),
        file=out,
    )
    return 0


def _serve_config(args: argparse.Namespace):
    from repro.serving import ServeConfig

    return ServeConfig(
        network=args.network,
        scale=args.scale,
        seed=args.seed,
        regions=args.regions,
        landmarks=args.landmarks,
        methods=tuple(args.methods),
        workers=args.workers,
        max_pending=args.max_pending,
        pace_packet_us=args.pace_packet_us,
        routing=args.routing,
        socket_path=args.socket,
        port=args.port,
        host=args.host,
        store_dir=args.store_dir,
    )


def _command_serve(args: argparse.Namespace, out) -> int:
    import asyncio
    import signal

    from repro.serving import AirServer

    server = AirServer(_serve_config(args))

    async def _run() -> int:
        address = await server.start()
        if address[0] == "unix":
            print(f"serving on unix:{address[1]}", file=out, flush=True)
        else:
            print(f"serving on tcp:{address[1]}:{address[2]}", file=out, flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(server.stop())
                )
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread (tests) or unsupported platform: clients
                # can still stop the daemon with a shutdown request.
                pass
        await server.wait_stopped()
        return 0

    return asyncio.run(_run())


def _bench_address(args: argparse.Namespace):
    if args.port is not None:
        return ("tcp", args.host, args.port)
    if args.socket is None:
        raise SystemExit(f"{args.command} needs --socket or --port")
    return ("unix", args.socket)


def _command_bench_client(args: argparse.Namespace, out) -> int:
    from repro.serving import ServingClient, run_load

    address = _bench_address(args)
    # Sampling query endpoints needs node ids; loading the (scaled) network
    # is cheap and keeps the wire protocol free of bulk id transfers.
    network = datasets.load(args.network, scale=args.scale, seed=args.seed)
    rng = random.Random(args.seed)
    nodes = network.node_ids()
    pairs = [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(args.requests)
    ]
    load = run_load(
        address, pairs, method=args.method, concurrency=args.concurrency
    )
    latency = load.latency_ms
    rows = [
        ["requests ok / errors", f"{load.requests} / {load.errors}"],
        ["busy retries", load.busy_retries],
        ["duration (s)", round(load.duration_s, 3)],
        ["throughput (qps)", round(load.qps, 1)],
        ["latency p50/p90/p99 (ms)", "/".join(
            f"{latency.get(key, 0.0):.2f}" for key in ("p50", "p90", "p99")
        )],
        ["workers hit", ", ".join(
            f"{worker}:{count}" for worker, count in sorted(load.workers.items())
        ) or "-"],
    ]
    print(
        report.format_table(
            ["Quantity", "Value"],
            rows,
            title=(
                f"Serving burst: {args.requests} x {args.method} via "
                f"{args.concurrency} connections"
            ),
        ),
        file=out,
    )
    if args.shutdown:
        with ServingClient(address) as client:
            client.shutdown()
    return 0 if load.errors == 0 else 1


def _command_chaos(args: argparse.Namespace, out) -> int:
    from repro.faults import build_scenario
    from repro.faults.chaos import run_chaos

    address = _bench_address(args)
    network = datasets.load(args.network, scale=args.scale, seed=args.seed)
    rng = random.Random(args.seed)
    nodes = network.node_ids()
    # Half the budget is unique pairs, issued twice: duplicates give the
    # self-consistency identity check its teeth (two answers for the same
    # (fingerprint, source, target) must agree bit-for-bit).
    unique = [
        (rng.choice(nodes), rng.choice(nodes))
        for _ in range(max(1, args.requests // 2))
    ]
    pairs = (unique * 2)[: args.requests]
    refreshes = []
    if args.refreshes > 0:
        edges = list(network.edges())
        for index in range(args.refreshes):
            batch = edges[4 * index : 4 * index + 4] or edges[:4]
            refreshes.append(
                [(e.source, e.target, e.weight * (1.5 + 0.1 * index)) for e in batch]
            )
    plan = build_scenario(args.scenario, seed=args.seed)
    chaos_report = run_chaos(
        address,
        plan,
        pairs,
        method=args.method,
        concurrency=args.concurrency,
        deadline_ms=args.deadline_ms,
        refreshes=refreshes,
    )
    mttr = chaos_report.mttr_s
    fired = chaos_report.fault_stats.get("fired") or {}
    rows = [
        ["scenario / seed", f"{args.scenario} / {args.seed}"],
        ["requests ok / total", f"{chaos_report.ok} / {chaos_report.requests}"],
        ["availability (in-deadline)", f"{chaos_report.availability:.4f}"],
        ["deadline misses", chaos_report.deadline_misses],
        ["reconnects", chaos_report.reconnects],
        ["stale responses", chaos_report.stale_responses],
        ["identity violations", chaos_report.identity_violations],
        ["errors", ", ".join(
            f"{kind}:{count}" for kind, count in sorted(chaos_report.errors.items())
        ) or "-"],
        ["faults fired", ", ".join(
            f"{point}:{count}" for point, count in sorted(fired.items())
        ) or "-"],
        ["worker respawns / MTTR (s)", f"{chaos_report.respawns} / "
         + (f"{mttr:.3f}" if mttr is not None else "-")],
        ["refreshes (degraded)", f"{len(chaos_report.refreshes)} "
         f"({sum(1 for r in chaos_report.refreshes if r.get('degraded'))})"],
        ["duration (s)", round(chaos_report.duration_s, 3)],
    ]
    print(
        report.format_table(
            ["Quantity", "Value"],
            rows,
            title=(
                f"Chaos run: {args.requests} x {args.method} under "
                f"'{args.scenario}' via {args.concurrency} connections"
            ),
        ),
        file=out,
    )
    if chaos_report.identity_violations:
        print(
            f"FAIL: {chaos_report.identity_violations} bit-identity violations",
            file=out,
        )
        return 1
    if (
        args.min_availability is not None
        and chaos_report.availability < args.min_availability
    ):
        print(
            f"FAIL: availability {chaos_report.availability:.4f} < "
            f"{args.min_availability:.4f}",
            file=out,
        )
        return 1
    return 0


def _command_ingest(args: argparse.Namespace, out) -> int:
    import time

    from repro.network.ingest import (
        IngestError,
        import_csv,
        import_dimacs,
        open_table,
    )
    from repro.network.ingest.columnar import DEFAULT_CHUNK_ROWS

    input_format = args.input_format
    if input_format is None:
        input_format = "dimacs" if args.edges.endswith((".gr", ".gr.gz")) else "csv"
    chunk_rows = args.chunk_rows or DEFAULT_CHUNK_ROWS
    started = time.perf_counter()
    try:
        if input_format == "dimacs":
            table = import_dimacs(
                args.edges,
                args.out,
                co_path=args.nodes,
                name=args.name,
                chunk_rows=chunk_rows,
                use_parquet=args.parquet,
            )
        else:
            table = import_csv(
                args.edges,
                args.out,
                nodes_path=args.nodes,
                name=args.name,
                delimiter=args.delimiter,
                chunk_rows=chunk_rows,
                use_parquet=args.parquet,
            )
    except IngestError as exc:
        print(f"ingest error: {exc}", file=out)
        return 1
    import_seconds = time.perf_counter() - started
    stats = table.stats()
    rows = [
        ["table", str(table.directory)],
        ["format", f"{input_format} -> {stats['chunk_format']} chunks"],
        ["nodes / edges", f"{stats['num_nodes']} / {stats['num_edges']}"],
        ["chunks (node/edge)", f"{stats['node_chunks']} / {stats['edge_chunks']}"],
        ["on-disk KB", round(table.total_bytes() / 1024.0, 1)],
        ["fingerprint", stats["fingerprint"][:16]],
        ["import seconds", round(import_seconds, 3)],
        [
            "import rate",
            f"{(stats['num_nodes'] + stats['num_edges']) / max(import_seconds, 1e-9):,.0f} rows/s",
        ],
    ]
    if args.build:
        from repro.network.algorithms import kernel
        from repro.network.ingest import ColumnarNetwork

        started = time.perf_counter()
        network = ColumnarNetwork.from_table(open_table(args.out))
        build_seconds = time.perf_counter() - started
        rows.append(["CSR build seconds (dict-free)", round(build_seconds, 3)])
        ids = network.node_ids()
        if ids:
            rng = random.Random(args.seed)
            source, target = rng.choice(ids), rng.choice(ids)
            arena = kernel.arena_for(network.csr_snapshot())
            distance = arena.point_to_point(source, target).distance_to(target)
            shown = round(distance, 3) if distance != float("inf") else "unreachable"
            rows.append([f"sanity query {source}->{target}", shown])
    print(
        report.format_table(
            ["Quantity", "Value"],
            rows,
            title=f"Columnar ingest: {args.edges}",
        ),
        file=out,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code.

    A ``ValueError`` from a command (an invalid configuration value, say)
    ends in a one-line ``repro: error: ...`` on stderr and exit code 2, as
    argparse reports its own errors; ``ingest`` reports its located
    diagnostics itself, with exit code 1.
    """
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "schemes": _command_schemes,
        "cycle": _command_cycle,
        "query": _command_query,
        "compare": _command_compare,
        "fleet": _command_fleet,
        "dynamic": _command_dynamic,
        "store": _command_store,
        "serve": _command_serve,
        "bench-client": _command_bench_client,
        "chaos": _command_chaos,
        "ingest": _command_ingest,
    }
    try:
        return handlers[args.command](args, out)
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
