#!/usr/bin/env python
"""cProfile harness over a registered scheme's build / query / refresh paths.

The SP-kernel PR found its wins by profiling exactly these three phases;
this tool packages that workflow so the next perf PR starts from data, not
guesses.  For any registered scheme it profiles:

* **build** -- scheme construction through the registry (pre-computation
  plus cycle layout),
* **query** -- a deterministic on-air workload through the scheme's client,
* **refresh** -- weight-update batches routed through the engine's
  incremental rebuild path,
* **publish** -- what the serving daemon does per publication: the
  scheme's ``artifact()`` encoding, the artifact's ``to_bytes()`` framing,
  and a shared-memory ``SharedArtifactSegment.publish`` plus its unlink;
* **fleet** -- ``simulate_fleet`` over a ``fleet_rush_hour`` fleet of
  ``--devices`` devices (fleet generation is not profiled): the columnar
  partition, the probe sessions and the bulk trace replay;
* **swap** -- what a serving worker does per publication: one segment is
  published (not profiled), then ``WorkerRuntime.load_segment`` attaches,
  verifies and restores it ``SWAPS`` times (the checksum over the
  directory's fingerprint and the payload, the network over the mapped
  arrays with that fingerprint carried rather than re-hashed, scheme
  restores from the serving forms and their cycle re-lay);
* **restore** -- a warm start that then refreshes: after one unprofiled
  build, ``from_artifact`` over the framed store artifact
  (``BuildArtifact.from_bytes(artifact().to_bytes())``) and the first
  ``shadow_rebuild`` batch -- for NR and EB the label decode, the fold of
  every row and the repair; for AF and HiTi the bulk region location and
  the per-edge flag list or the super-edge lists.

Run from the repository root::

    PYTHONPATH=src python tools/profile_hotpaths.py --scheme NR
    PYTHONPATH=src python tools/profile_hotpaths.py --scheme HiTi \
        --network milan --scale 0.02 --queries 32 --top 25 --sort tottime

Pass ``--phases build,query`` to skip phases (``--phases publish`` profiles
the publication path alone, after an unprofiled build; ``--phases fleet``
likewise profiles the fleet simulator alone, ``--phases swap`` the worker
swap alone, ``--phases restore`` the restore-then-refresh path alone).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import random
import sys

#: Publications profiled by the publish phase.
PUBLICATIONS = 3
#: Worker segment loads profiled by the swap phase.
SWAPS = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scheme", default="NR", help="registered scheme name (see `repro schemes`)")
    parser.add_argument("--network", default="germany", help="paper network name")
    parser.add_argument("--scale", type=float, default=0.02, help="network down-scaling factor")
    parser.add_argument("--seed", type=int, default=13, help="generator / workload seed")
    parser.add_argument("--queries", type=int, default=16, help="queries in the profiled workload")
    parser.add_argument("--update-batches", type=int, default=4, help="weight-update batches to refresh through")
    parser.add_argument("--edges-per-batch", type=int, default=3, help="edges mutated per update batch")
    parser.add_argument("--devices", type=int, default=100_000, help="devices in the profiled rush-hour fleet")
    parser.add_argument("--top", type=int, default=20, help="rows of the profile table to print")
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key",
    )
    parser.add_argument(
        "--phases",
        default="build,query,refresh,publish,fleet,swap,restore",
        help="comma-separated subset of build,query,refresh,publish,fleet,swap,restore",
    )
    return parser.parse_args(argv)


def profile_phase(title: str, func, sort: str, top: int) -> None:
    print(f"\n{'=' * 72}\n  {title}\n{'=' * 72}")
    profiler = cProfile.Profile()
    profiler.enable()
    func()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(sort).print_stats(top)


def main(argv=None) -> int:
    args = parse_args(argv)
    from repro import air
    from repro.engine import AirSystem
    from repro.experiments import ExperimentConfig, QueryWorkload
    from repro.network import datasets

    phases = {phase.strip() for phase in args.phases.split(",") if phase.strip()}
    unknown = phases - {"build", "query", "refresh", "publish", "fleet", "swap", "restore"}
    if unknown:
        raise SystemExit(f"unknown phases: {', '.join(sorted(unknown))}")

    scheme_name = air.canonical_name(args.scheme)
    config = ExperimentConfig(network=args.network, scale=args.scale, seed=args.seed)
    network = datasets.load(args.network, scale=args.scale, seed=args.seed)
    print(
        f"profiling {scheme_name} on {network.name} "
        f"({network.num_nodes} nodes, {network.num_edges} edges)"
    )

    system = AirSystem(network, config=config)
    if "build" in phases:
        profile_phase(
            f"build: {scheme_name} pre-computation + cycle layout",
            lambda: system.scheme(scheme_name),
            args.sort,
            args.top,
        )
    else:
        system.scheme(scheme_name)

    if "query" in phases:
        workload = QueryWorkload(network, args.queries, seed=args.seed)
        profile_phase(
            f"query: {len(workload)} on-air queries",
            lambda: system.query_batch(scheme_name, workload),
            args.sort,
            args.top,
        )

    rng = random.Random(args.seed)
    edges = list(network.edges())

    def update_batch():
        batch = []
        for _ in range(args.edges_per_batch):
            edge = rng.choice(edges)
            batch.append(
                (edge.source, edge.target, max(1e-3, edge.weight * rng.uniform(0.5, 2.0)))
            )
        return batch

    if "refresh" in phases:

        def run_refreshes() -> None:
            for _ in range(args.update_batches):
                system.apply_updates(update_batch())

        profile_phase(
            f"refresh: {args.update_batches} weight-update batches "
            f"x {args.edges_per_batch} edges",
            run_refreshes,
            args.sort,
            args.top,
        )

    if "publish" in phases:
        from repro.serving.shm import SharedArtifactSegment

        scheme = system.scheme(scheme_name)

        def run_publications() -> None:
            for _ in range(PUBLICATIONS):
                artifact = scheme.artifact()
                artifact.to_bytes()
                segment = SharedArtifactSegment.publish(network, {scheme_name: artifact})
                segment.unlink()
                segment.close()

        profile_phase(
            f"publish: {PUBLICATIONS} x artifact() + to_bytes() "
            "+ shared segment publish/unlink",
            run_publications,
            args.sort,
            args.top,
        )

    if "fleet" in phases:
        from repro.experiments import fleet_rush_hour
        from repro.fleet import simulate_fleet

        scheme = system.scheme(scheme_name)
        devices = fleet_rush_hour(network, args.devices, seed=args.seed)
        profile_phase(
            f"fleet: simulate_fleet over {len(devices)} rush-hour devices",
            lambda: simulate_fleet(scheme, devices, seed=args.seed),
            args.sort,
            args.top,
        )

    if "swap" in phases:
        from repro.serving.shm import SharedArtifactSegment
        from repro.serving.worker import WorkerRuntime

        artifact = system.scheme(scheme_name).artifact()
        segment = SharedArtifactSegment.publish(network, {scheme_name: artifact})
        runtime = WorkerRuntime(0, config=config)

        def run_swaps() -> None:
            for _ in range(SWAPS):
                runtime.load_segment(segment.name)

        try:
            profile_phase(
                f"swap: {SWAPS} x WorkerRuntime.load_segment of one published segment",
                run_swaps,
                args.sort,
                args.top,
            )
        finally:
            runtime.shutdown()
            segment.unlink()
            segment.close()

    if "restore" in phases:
        from repro.air.base import AirIndexScheme
        from repro.serialize import BuildArtifact

        data = system.scheme(scheme_name).artifact().to_bytes()
        # Restore onto a copy, which the batch then mutates: the system
        # keeps its own network.
        target = network.copy()
        batch = update_batch()

        def run_restore() -> None:
            restored = AirIndexScheme.from_artifact(target, BuildArtifact.from_bytes(data))
            target.apply_updates(batch)
            restored.shadow_rebuild(target, target.pending_delta())

        profile_phase(
            f"restore: from_artifact of the framed store artifact + the first "
            f"shadow_rebuild batch x {args.edges_per_batch} edges",
            run_restore,
            args.sort,
            args.top,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
