"""The four workloads: what each runs, why, and its seeded inputs.

Every input is generated here; the program only ever sees the generated
query tuples, device specs and update batches.  The timed inputs come from
``--seed``.  Each workload also has reference inputs drawn from
``REFERENCE_SEED`` -- the warm-up requests of a daemon, one fleet of the
fleet workload, the update batches of the refresh workload -- that are the
same for every seed: the paper factors are measured on them, so two runs
of the same code read them identically whatever their seeds.  Phases are shares of the run's ``--seconds``, so
every workload measures for the same wall time and the open-loop rates fix
how many requests that phase sends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: ``(method, source, target, tune_in_offset)`` -- one served query.
Query = Tuple[str, int, int, int]
#: ``(source, target, new_weight)`` -- one edge-weight change.
Update = Tuple[int, int, float]

#: Tune-in offsets are drawn from this range; a session starts at that
#: global packet position, so each scheme sees them modulo its own cycle.
_OFFSET_RANGE = 1 << 30
#: Seed of the reference inputs.
REFERENCE_SEED = "reference"


@dataclass(frozen=True)
class Workload:
    """One workload; ``BENCHMARK.json`` records why each was chosen."""

    name: str
    network: str
    scale: float
    network_seed: int
    regions: int
    methods: Tuple[str, ...]
    #: ``daemon`` (served by ``python -m repro serve``) or ``fleet``
    #: (in-process ``AirSystem.simulate_fleet``).
    kind: str = "daemon"
    #: Open-loop arrival rate (requests/s); 0 for no open loop.
    open_rate: float = 0.0
    #: Connections the open and closed loops spread requests over.
    query_connections: int = 2
    #: Reference requests before any phase, filling per-worker caches.
    warmup: int = 0
    #: Whether refreshes run on a fixed period beside the reads.
    refreshes: bool = False
    #: Fleet workloads: devices per simulated fleet.
    devices: int = 0

    def serve_args(self) -> List[str]:
        return [
            "--network", self.network,
            "--scale", repr(self.scale),
            "--seed", str(self.network_seed),
            "--regions", str(self.regions),
            "--methods", ",".join(self.methods),
        ]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Heavy per-query compute, nothing shared between queries: kernel,
        # broadcast and NR client changes show here.
        Workload(
            name="point-5k",
            network="milan", scale=0.35, network_seed=3, regions=16,
            methods=("NR",), open_rate=120.0, warmup=500,
        ),
        # Cheap queries cycling six schemes: framing, routing, pipes and
        # engine lookups dominate, and kernel changes barely show.
        Workload(
            name="mixed-1k",
            network="germany", scale=0.035, network_seed=31, regions=16,
            methods=("DJ", "NR", "EB", "LD", "AF", "HiTi"),
            open_rate=300.0, warmup=300,
        ),
        # 24 hot routes shared by 200k devices: bulk replay does the work,
        # serving and the kernel are bypassed.
        Workload(
            name="fleet-rush",
            network="milan", scale=0.35, network_seed=3, regions=16,
            methods=("NR",), kind="fleet", devices=200_000,
        ),
        # Reads while weight updates are repaired, encoded, stored, published
        # and swapped into every worker.  The point-5k city at 1,402 nodes: a
        # refresh there takes 0.45-0.9 s, so one every 1.5 s holds one in
        # flight about 40% of the time; at 4,907 nodes one takes 2.5-5 s and
        # a ten-second run would hold two or three.
        Workload(
            name="refresh-load",
            network="milan", scale=0.1, network_seed=3, regions=16,
            methods=("NR",), open_rate=80.0, query_connections=1, warmup=1000,
            refreshes=True,
        ),
    )
}

#: Edges changed by each refresh.
_EDITS_PER_REFRESH = 4


def workload_rng(workload: Workload, seed, stream: str) -> random.Random:
    """An independent, reproducible random stream per workload and seed
    (an integer, or ``REFERENCE_SEED``)."""
    return random.Random(f"{workload.name}:{seed}:{stream}")


def make_queries(workload: Workload, seed, node_ids: Sequence[int], count: int) -> List[Query]:
    """Uniform random source/target pairs with random tune-in offsets.

    Methods cycle through the workload's schemes in request order.
    """
    rng = workload_rng(workload, seed, "queries")
    queries: List[Query] = []
    for index in range(count):
        source = rng.choice(node_ids)
        target = rng.choice(node_ids)
        while target == source:
            target = rng.choice(node_ids)
        method = workload.methods[index % len(workload.methods)]
        queries.append((method, source, target, rng.randrange(_OFFSET_RANGE)))
    return queries


def make_updates(
    workload: Workload, seed: int, weights: Dict[Tuple[int, int], float], batches: int
) -> List[List[Update]]:
    """Batches of edge-weight changes, each weight x0.7 or x1.5 of its
    current value (batches compound, as a day of traffic would)."""
    rng = workload_rng(workload, seed, "updates")
    edges = sorted(weights)
    current = dict(weights)
    plan: List[List[Update]] = []
    for _ in range(batches):
        batch: List[Update] = []
        for source, target in rng.sample(edges, _EDITS_PER_REFRESH):
            factor = rng.choice((0.7, 1.5))
            current[(source, target)] *= factor
            batch.append((source, target, current[(source, target)]))
        plan.append(batch)
    return plan


#: Shape of the rush hour (the program's ``fleet_rush_hour`` scenario):
#: hot routes drawn rank-weighted with Zipf skew 1.1, tune-in moments on a
#: Gaussian burst at 35% +- 8% of the cycle.
_HOT_ROUTES = 24
_ROUTE_SKEW = 1.1
_BURST = (0.35, 0.08)
#: The hot routes are a property of the city, fixed per workload; the run
#: seed draws which device takes which route and when it tunes in.  A
#: per-seed route pool would make the paper factors (tuning, access,
#: memory) swing by several percent between seeds on 24 routes.
_ROUTE_POOL_SEED = "fleet-rush:routes"


def hot_routes(node_ids: Sequence[int], reachable) -> List[Tuple[int, int]]:
    """The workload's fixed pool of distinct, connected hot routes."""
    rng = random.Random(_ROUTE_POOL_SEED)
    routes: List[Tuple[int, int]] = []
    while len(routes) < _HOT_ROUTES:
        source, target = rng.choice(node_ids), rng.choice(node_ids)
        if source != target and (source, target) not in routes and reachable(source, target):
            routes.append((source, target))
    return routes


def make_fleet(workload: Workload, seed, routes: Sequence[Tuple[int, int]], truth) -> List[object]:
    """One rush-hour fleet as the program's ``DeviceSpec`` objects.

    The first device on each route tunes in at the burst centre and the
    rest are drawn from the seed.  The simulator probes the first device of
    each route and replays that probe for the others, so fixing it keeps
    the replayed access latency from swinging with one random device.
    """
    from repro.fleet.devices import DeviceSpec

    rng = workload_rng(workload, seed, "fleet")
    weights = [1.0 / (rank + 1) ** _ROUTE_SKEW for rank in range(len(routes))]
    center, width = _BURST
    picks = list(range(len(routes))) + rng.choices(
        range(len(routes)), weights=weights, k=workload.devices - len(routes)
    )
    fractions = [center] * len(routes) + [
        min(max(rng.gauss(center, width), 0.0), 1.0 - 1e-9)
        for _ in range(workload.devices - len(routes))
    ]
    devices = []
    for device_id, (pick, fraction) in enumerate(zip(picks, fractions)):
        source, target = routes[pick]
        devices.append(
            DeviceSpec(
                device_id=device_id,
                source=source,
                target=target,
                tune_in_fraction=fraction,
                true_distance=truth[(source, target)],
            )
        )
    return devices
