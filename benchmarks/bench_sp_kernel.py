"""Array SP kernel vs the dict Dijkstra -- the repo's core perf trajectory.

The dict Dijkstra is the test oracle ``tests/oracles/dijkstra.py``: the
plain heap-and-dicts loop the kernel reproduces bit for bit.  It runs on a
dict-of-lists copy of the network (``tests/oracles/dict_network.py``), so
its timings price dict adjacency, as they always have.

Not a table or figure of the paper: this benchmark prices the engine room.
Every layer -- air-index clients, EB/NR/HiTi/Landmark/ArcFlag
pre-computation, fleet and dynamic ground truth -- bottoms out in a
shortest path search, so the kernel's speedup multiplies through build and
query throughput alike.  Measured on the 1k-node network:

* **SSSP** -- full single-source sweeps, the pre-computation workhorse
  (asserted >= 3x by default; ``REPRO_KERNEL_MIN_SPEEDUP`` relaxes the
  floor for noisy CI runners);
* **point-to-point** -- distance queries in the workload generator's shape
  (``point_to_point(s, t).distance_to(t)``): one compiled sweep plus an
  O(n) rank count answers the query, and no tree is derived unless a
  consumer reads ``pred`` (asserted >= 2x by default via
  ``REPRO_KERNEL_MIN_P2P_SPEEDUP``);
* **masked point-to-point** -- the NR client's search
  (``point_to_point(s, t, allowed=mask).path_result(t)``) over NR-shaped
  node sets: the source and target regions whole plus the cross-border
  nodes of the regions NR marks as needed between them.  The mask is the
  one the client builds: one ``uint8`` byte per node index, with the
  ``indexes`` of every region segment it receives set.  One compiled
  sweep with the outside edges weighted ``inf``, then a walk back over
  in-edges for the path; timed against the oracle's masked dict loop over
  the same nodes' ids and asserted >= ``MIN_MASKED_P2P_SPEEDUP``;
* **ArcFlag client** and **HiTi client** -- ``ArcFlagIndex.query`` and
  ``HiTiIndex.query`` over 16 kd regions: one compiled sweep each, over
  ArcFlag's pinned weights with the edges unflagged for the target's
  region weighed ``inf``, or HiTi's flat overlay with the edges the query
  leaves out weighed ``inf``, then a walk back for the path; timed against
  their references in ``tests/oracles/`` -- the edge-filtered A* over the
  dict network and the per-query dict overlay -- and asserted >=
  ``MIN_ARCFLAG_CLIENT_SPEEDUP`` and ``MIN_HITI_CLIENT_SPEEDUP``;
* **border many-to-many** -- the batched sweep pattern of
  ``BorderPathPrecomputation`` (distance and predecessor rows, chunked
  scipy calls; asserted >= 1.5x by default via
  ``REPRO_KERNEL_MIN_M2M_SPEEDUP``).

Answers are verified against the oracle in-bench before any timing is
trusted -- full sweeps bit-identical, point-to-point searches on their
answer and every settled node's label and predecessor --
and the numbers land in ``BENCH_sp_kernel.json`` at the repository root.

One timing of a ~0.1 s loop is at the mercy of a slow stretch of a shared
host, so every workload runs in ``ROUNDS`` rounds that alternate the dict
and the kernel side.  Each ratio is taken per round and every floor applies
to the median of a ratio's rounds; the JSON records each ratio's rounds.

Run standalone like the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_sp_kernel.py -q
"""

from __future__ import annotations

import os
import random
import statistics
import time

import numpy as np
import pytest

from oracles import hiti as hiti_oracle
from oracles.astar import astar_search
from oracles.dict_network import build_dict_network
from oracles.dijkstra import dijkstra_distances, dijkstra_search, shortest_path
from repro.air.nr import NextRegionScheme
from repro.experiments import report
from repro.index.arcflag import ArcFlagIndex
from repro.index.hiti import HiTiIndex
from repro.network.algorithms import kernel
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.partitioning.kdtree import build_kdtree_partitioning

from conftest import check_point_to_point, write_json_report, write_report

#: The 1k-node benchmark network (kept in line with bench_dynamic_updates).
NETWORK_CONFIG = GeneratorConfig(num_nodes=1000, num_edges=2600, seed=31)
NUM_SSSP_SOURCES = 40
NUM_QUERIES = 120
NUM_BORDER_REGIONS = 16
#: Acceptance floor on the SSSP speedup; CI relaxes it to 1.5 for noisy
#: shared runners.
MIN_SSSP_SPEEDUP = float(os.environ.get("REPRO_KERNEL_MIN_SPEEDUP", "3.0"))
#: Floors on the point-to-point and many-to-many speedups.
MIN_P2P_SPEEDUP = float(os.environ.get("REPRO_KERNEL_MIN_P2P_SPEEDUP", "2.0"))
MIN_M2M_SPEEDUP = float(os.environ.get("REPRO_KERNEL_MIN_M2M_SPEEDUP", "1.5"))
#: Floor on the masked point-to-point speedup: below the 1.7-3.2x measured
#: over repeated runs on a 2-vCPU VM, where scipy's fixed per-call cost
#: (~40 us) weighs on sets of a few hundred nodes.
MIN_MASKED_P2P_SPEEDUP = 1.2
#: Floors on the client speedups, below the medians of 1.6-1.7x (ArcFlag)
#: and 11-14x (HiTi) over repeated runs on a 2-vCPU VM: ArcFlag's reference
#: settles only the flagged edges' few nodes, where scipy's fixed per-call
#: cost (~30 us) weighs; HiTi's rebuilds its dict overlay per query.
MIN_ARCFLAG_CLIENT_SPEEDUP = 1.1
MIN_HITI_CLIENT_SPEEDUP = 5.0
#: Alternating dict/kernel rounds; every floor applies to the median of a
#: ratio's per-round values.
ROUNDS = 5
#: Each reported ratio: ``(dict side, kernel side)`` of the timed runs.
RATIOS = {
    "sssp": ("dict_sssp", "kernel_sssp"),
    "sssp_with_predecessors": ("dict_sssp", "kernel_sssp_pred"),
    "point_to_point": ("dict_p2p", "kernel_p2p"),
    "masked_point_to_point": ("dict_masked", "kernel_masked"),
    "arcflag_client": ("dict_arcflag", "kernel_arcflag"),
    "hiti_client": ("dict_hiti", "kernel_hiti"),
    "border_many_to_many": ("dict_many", "kernel_many"),
}


@pytest.fixture(scope="module")
def network():
    net = generate_road_network(NETWORK_CONFIG, name="bench-kernel-1k")
    net.clear_delta()
    return net


def _each(items, call) -> None:
    """``call(item)`` for every item, keeping no result: a timed loop."""
    for item in items:
        call(item)


def _rounded(values):
    return [round(value, 2) for value in values]


def _dict_copy(network):
    return build_dict_network(
        ((node.node_id, node.x, node.y) for node in network.nodes()),
        ((edge.source, edge.target, edge.weight) for edge in network.edges()),
        name=network.name,
    )


def _verify_bit_identity(network, reference, sources, pairs) -> None:
    arena = kernel.arena_for(network.ensure_csr())
    for source in sources[:5]:
        want = dijkstra_distances(reference, source)
        got = arena.sssp(source)
        assert got.distances_dict() == want.distances
        assert got.predecessors_dict() == want.predecessors
        assert got.settled == want.settled
    # Point-to-point: every timed pair's answer, and on every node the
    # stopped loop settled, its label and tie-broken predecessor.
    for source, target in pairs:
        want = dijkstra_search(reference, source, target=target)
        check_point_to_point(arena.point_to_point(source, target), want, target)


def _nr_shaped_queries(network, pairs):
    """``(source, target, allowed, mask)`` per pair: ``allowed`` the ids of
    the nodes an NR client receives -- the source and target regions whole
    plus the cross-border nodes of every region NR marks as needed -- and
    ``mask`` the kernel's form of them, built as the client builds it: each
    received region segment's ``indexes`` set in a zeroed ``uint8`` vector."""
    scheme = NextRegionScheme(network, num_regions=NUM_BORDER_REGIONS)
    partitioning, cycle = scheme.partitioning, scheme.cycle
    queries = []
    for source, target in pairs:
        ends = (partitioning.region_of(source), partitioning.region_of(target))
        names = [f"region-{region}-local" for region in set(ends)] + [
            f"region-{region}-cross"
            for region in set(ends).union(scheme.needed_regions(*ends))
        ]
        allowed = set()
        mask = np.zeros(network.num_nodes, dtype=np.uint8)
        for name in names:
            payload = cycle.segment(name).payload
            allowed.update(payload["nodes"])
            mask[payload["indexes"]] = 1
        queries.append((source, target, allowed, mask))
    return queries


def _verify_masked(network, reference, queries) -> None:
    """Every masked answer (distance, path, settled) equals the oracle's,
    and so does every settled node's label and predecessor."""
    arena = kernel.arena_for(network.ensure_csr())
    for source, target, allowed, mask in queries:
        want = dijkstra_search(reference, source, target=target, allowed=allowed)
        got = arena.point_to_point(source, target, allowed=mask)
        check_point_to_point(got, want, target)


def _arcflag_reference(reference, index, partitioning):
    """ArcFlag's reference search: A* with no bound over the dict network,
    keeping the edges flagged for the target's region."""
    flags = index.flags

    def search(source, target):
        bit = 1 << partitioning.region_of(target)
        return astar_search(
            reference, source, target, edge_filter=lambda u, v: bool(flags[(u, v)] & bit)
        )

    return search


def _verify_clients(pairs, arcflag, arcflag_reference, hiti) -> None:
    """Every client answer (distance, path, settled) equals its reference's."""
    for source, target in pairs:
        for got, want in (
            (arcflag.query(source, target), arcflag_reference(source, target)),
            (hiti.query(source, target), hiti_oracle.query(hiti, source, target)),
        ):
            assert (got.distance, got.path, got.settled) == (
                want.distance, want.path, want.settled
            ), (source, target)


def test_kernel_vs_dict_dijkstra(network):
    rng = random.Random(7)
    ids = network.node_ids()
    sources = rng.sample(ids, NUM_SSSP_SOURCES)
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(NUM_QUERIES)]
    partitioning = build_kdtree_partitioning(network, NUM_BORDER_REGIONS)
    borders = [
        node
        for region in range(partitioning.num_regions)
        for node in partitioning.border_nodes(region)
    ]

    masked_queries = _nr_shaped_queries(network, pairs)

    arena = kernel.arena_for(network.ensure_csr())
    reference = _dict_copy(network)
    _verify_bit_identity(network, reference, sources, pairs)
    _verify_masked(network, reference, masked_queries)
    arcflag = ArcFlagIndex(network, partitioning)
    arcflag_reference = _arcflag_reference(reference, arcflag, partitioning)
    hiti = HiTiIndex(network, partitioning)
    _verify_clients(pairs, arcflag, arcflag_reference, hiti)

    # Warm-up: build the kernel's lazy numpy/scipy views (matrices, edge arrays)
    # and touch every code path once so the timings below compare steady
    # states, not first-call construction.
    arena.sssp(sources[0], need_predecessors=False)
    arena.sssp(sources[0], need_predecessors=True, reverse=True)
    arena.point_to_point(*pairs[0]).distance_to(pairs[0][1])
    arena.many_to_many(
        borders[:4],
        np.empty((4, network.num_nodes)),
        np.empty((4, network.num_nodes), dtype=np.int64),
    )
    dijkstra_distances(reference, sources[0])

    masked_nodes = sorted(len(allowed) for _, _, allowed, _ in masked_queries)
    median_masked_nodes = masked_nodes[len(masked_nodes) // 2]
    shape = (len(borders), network.num_nodes)

    def sweep_with_tree():
        # The precomputation shape: SPQ reads the tree and the discovery
        # order of every sweep.
        for source in sources:
            sweep = arena.sssp(source, need_predecessors=True)
            sweep.pred, sweep.order

    def dict_masked():
        for source, target, allowed, _ in masked_queries:
            dijkstra_search(reference, source, target=target, allowed=allowed).path_to(target)

    def kernel_masked():
        for source, target, _, mask in masked_queries:
            arena.point_to_point(source, target, allowed=mask).path_result(target)

    # Point-to-point runs in the workload generator's shape (the dict side
    # stops early, the kernel side sweeps compiled and answers off the
    # converged labels); the masked runs are the NR client's search and
    # path read; many-to-many derives predecessors, as EB/NR need.
    runs = {
        "dict_sssp": lambda: _each(sources, lambda s: dijkstra_distances(reference, s)),
        "kernel_sssp": lambda: _each(
            sources, lambda s: arena.sssp(s, need_predecessors=False)
        ),
        "kernel_sssp_pred": sweep_with_tree,
        "dict_p2p": lambda: _each(pairs, lambda p: shortest_path(reference, *p)),
        "kernel_p2p": lambda: _each(
            pairs, lambda p: arena.point_to_point(*p).distance_to(p[1])
        ),
        "dict_masked": dict_masked,
        "kernel_masked": kernel_masked,
        "dict_arcflag": lambda: _each(pairs, lambda p: arcflag_reference(*p)),
        "kernel_arcflag": lambda: _each(pairs, lambda p: arcflag.query(*p)),
        "dict_hiti": lambda: _each(pairs, lambda p: hiti_oracle.query(hiti, *p)),
        "kernel_hiti": lambda: _each(pairs, lambda p: hiti.query(*p)),
        "dict_many": lambda: _each(borders, lambda s: dijkstra_distances(reference, s)),
        "kernel_many": lambda: arena.many_to_many(
            borders, np.empty(shape), np.empty(shape, dtype=np.int64)
        ),
    }
    times = {name: [] for name in runs}
    for _ in range(ROUNDS):
        for name, run in runs.items():
            started = time.perf_counter()
            run()
            times[name].append(time.perf_counter() - started)
    rounds = {
        ratio: [d / k for d, k in zip(times[dict_side], times[kernel_side])]
        for ratio, (dict_side, kernel_side) in RATIOS.items()
    }
    speedup = {ratio: statistics.median(values) for ratio, values in rounds.items()}
    seconds = {name: statistics.median(values) for name, values in times.items()}

    labels = {
        "sssp": ("sssp (distances)", NUM_SSSP_SOURCES),
        "sssp_with_predecessors": ("sssp (+predecessors)", NUM_SSSP_SOURCES),
        "point_to_point": ("point-to-point", NUM_QUERIES),
        "masked_point_to_point": (
            f"masked point-to-point (median {median_masked_nodes} nodes)",
            NUM_QUERIES,
        ),
        "arcflag_client": ("ArcFlag client", NUM_QUERIES),
        "hiti_client": ("HiTi client", NUM_QUERIES),
        "border_many_to_many": (
            f"border many-to-many ({len(borders)} sources)",
            len(borders),
        ),
    }
    rows = [
        [
            label,
            count,
            round(seconds[RATIOS[ratio][0]] * 1000.0, 1),
            round(seconds[RATIOS[ratio][1]] * 1000.0, 1),
            f"{speedup[ratio]:.1f}x",
        ]
        for ratio, (label, count) in labels.items()
    ]
    table = report.format_table(
        ["Workload", "Runs", "Dict (ms)", "Kernel (ms)", "Speedup"],
        rows,
        title=(
            f"Array SP kernel vs dict Dijkstra -- {network.name} "
            f"({network.num_nodes} nodes, {network.num_edges} edges; "
            f"medians of {ROUNDS} alternating rounds)"
        ),
    )
    write_report("sp_kernel", table)
    write_json_report(
        "sp_kernel",
        {
            "network": {
                "nodes": network.num_nodes,
                "edges": network.num_edges,
                "fingerprint": network.fingerprint(),
            },
            "rounds": ROUNDS,
            "min_sssp_speedup_floor": MIN_SSSP_SPEEDUP,
            "sssp": {
                "runs": NUM_SSSP_SOURCES,
                "dict_seconds": seconds["dict_sssp"],
                "kernel_seconds": seconds["kernel_sssp"],
                "kernel_with_predecessors_seconds": seconds["kernel_sssp_pred"],
                "speedup": speedup["sssp"],
                "speedup_rounds": _rounded(rounds["sssp"]),
                "with_predecessors_speedup": speedup["sssp_with_predecessors"],
                "with_predecessors_speedup_rounds": _rounded(rounds["sssp_with_predecessors"]),
            },
            "point_to_point": {
                "runs": NUM_QUERIES,
                "dict_seconds": seconds["dict_p2p"],
                "kernel_seconds": seconds["kernel_p2p"],
                "speedup": speedup["point_to_point"],
                "speedup_rounds": _rounded(rounds["point_to_point"]),
                "min_speedup_floor": MIN_P2P_SPEEDUP,
            },
            "masked_point_to_point": {
                "runs": NUM_QUERIES,
                "median_allowed_nodes": median_masked_nodes,
                "dict_seconds": seconds["dict_masked"],
                "kernel_seconds": seconds["kernel_masked"],
                "speedup": speedup["masked_point_to_point"],
                "speedup_rounds": _rounded(rounds["masked_point_to_point"]),
                "min_speedup_floor": MIN_MASKED_P2P_SPEEDUP,
            },
            "arcflag_client": {
                "runs": NUM_QUERIES,
                "regions": NUM_BORDER_REGIONS,
                "dict_seconds": seconds["dict_arcflag"],
                "kernel_seconds": seconds["kernel_arcflag"],
                "speedup": speedup["arcflag_client"],
                "speedup_rounds": _rounded(rounds["arcflag_client"]),
                "min_speedup_floor": MIN_ARCFLAG_CLIENT_SPEEDUP,
            },
            "hiti_client": {
                "runs": NUM_QUERIES,
                "regions": NUM_BORDER_REGIONS,
                "dict_seconds": seconds["dict_hiti"],
                "kernel_seconds": seconds["kernel_hiti"],
                "speedup": speedup["hiti_client"],
                "speedup_rounds": _rounded(rounds["hiti_client"]),
                "min_speedup_floor": MIN_HITI_CLIENT_SPEEDUP,
            },
            "border_many_to_many": {
                "sources": len(borders),
                "dict_seconds": seconds["dict_many"],
                "kernel_seconds": seconds["kernel_many"],
                "speedup": speedup["border_many_to_many"],
                "speedup_rounds": _rounded(rounds["border_many_to_many"]),
                "min_speedup_floor": MIN_M2M_SPEEDUP,
            },
        },
    )

    floors = [
        ("sssp", "SSSP", MIN_SSSP_SPEEDUP),
        ("point_to_point", "point-to-point", MIN_P2P_SPEEDUP),
        ("masked_point_to_point", "masked point-to-point", MIN_MASKED_P2P_SPEEDUP),
        ("arcflag_client", "ArcFlag client", MIN_ARCFLAG_CLIENT_SPEEDUP),
        ("hiti_client", "HiTi client", MIN_HITI_CLIENT_SPEEDUP),
        ("border_many_to_many", "many-to-many", MIN_M2M_SPEEDUP),
    ]
    for ratio, name, floor in floors:
        assert speedup[ratio] >= floor, (
            f"kernel {name} is only {speedup[ratio]:.2f}x the dict Dijkstra in "
            f"the median of {ROUNDS} rounds {_rounded(rounds[ratio])} (floor {floor}x)"
        )
