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
  (``point_to_point(s, t, allowed=...).path_result(t)``) over NR-shaped
  node sets: the source and target regions whole plus the cross-border
  nodes of the regions NR marks as needed between them.  One compiled
  sweep with the outside edges weighted ``inf``, then a walk back over
  in-edges for the path; timed against the oracle's masked dict loop and
  asserted >= ``MIN_MASKED_P2P_SPEEDUP``;
* **border many-to-many** -- the batched sweep pattern of
  ``BorderPathPrecomputation`` (distance and predecessor rows, chunked
  scipy calls; asserted >= 1.5x by default via
  ``REPRO_KERNEL_MIN_M2M_SPEEDUP``).

Answers are verified against the oracle in-bench before any timing is
trusted -- full sweeps bit-identical, point-to-point searches on their
answer and every settled node's label and predecessor --
and the numbers land in ``BENCH_sp_kernel.json`` at the repository root.

Run standalone like the other benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_sp_kernel.py -q
"""

from __future__ import annotations

import os
import random
import time

import numpy as np
import pytest

from oracles.dict_network import build_dict_network
from oracles.dijkstra import dijkstra_distances, dijkstra_search, shortest_path
from repro.air.border_paths import BorderPathPrecomputation
from repro.experiments import report
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


@pytest.fixture(scope="module")
def network():
    net = generate_road_network(NETWORK_CONFIG, name="bench-kernel-1k")
    net.clear_delta()
    return net


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


def _nr_shaped_queries(network, partitioning, pairs):
    """``(source, target, allowed)`` per pair, ``allowed`` being the nodes an
    NR client receives: the source and target regions whole plus the
    cross-border nodes of every region NR marks as needed."""
    precomputation = BorderPathPrecomputation(network, partitioning)
    queries = []
    for source, target in pairs:
        source_region = partitioning.region_of(source)
        target_region = partitioning.region_of(target)
        allowed = set(partitioning.nodes_in_region(source_region))
        allowed.update(partitioning.nodes_in_region(target_region))
        for region in precomputation.needed_regions_nr(source_region, target_region):
            allowed.update(precomputation.cross_border_in_region(region))
        queries.append((source, target, allowed))
    return queries


def _verify_masked(network, reference, queries) -> None:
    """Every masked answer (distance, path, settled) equals the oracle's,
    and so does every settled node's label and predecessor."""
    arena = kernel.arena_for(network.ensure_csr())
    for source, target, allowed in queries:
        want = dijkstra_search(reference, source, target=target, allowed=allowed)
        got = arena.point_to_point(source, target, allowed=allowed)
        check_point_to_point(got, want, target)


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

    masked_queries = _nr_shaped_queries(network, partitioning, pairs)

    arena = kernel.arena_for(network.ensure_csr())
    reference = _dict_copy(network)
    _verify_bit_identity(network, reference, sources, pairs)
    _verify_masked(network, reference, masked_queries)

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

    # -- SSSP: full sweeps, distance labels ----------------------------
    started = time.perf_counter()
    for source in sources:
        dijkstra_distances(reference, source)
    dict_sssp = time.perf_counter() - started
    started = time.perf_counter()
    for source in sources:
        arena.sssp(source, need_predecessors=False)
    kernel_sssp = time.perf_counter() - started

    # -- SSSP with predecessors (the precomputation shape: SPQ reads the
    #    tree and the discovery order of every sweep) ------------------
    started = time.perf_counter()
    for source in sources:
        sweep = arena.sssp(source, need_predecessors=True)
        sweep.pred, sweep.order
    kernel_sssp_pred = time.perf_counter() - started

    # -- point-to-point (distance queries, the workload generator's
    #    shape: dict side early-terminates, kernel side sweeps compiled
    #    and answers off the converged labels) -------------------------
    started = time.perf_counter()
    for source, target in pairs:
        shortest_path(reference, source, target)
    dict_p2p = time.perf_counter() - started
    started = time.perf_counter()
    for source, target in pairs:
        arena.point_to_point(source, target).distance_to(target)
    kernel_p2p = time.perf_counter() - started

    # -- masked point-to-point (the NR client's search and path read) --
    started = time.perf_counter()
    for source, target, allowed in masked_queries:
        dijkstra_search(reference, source, target=target, allowed=allowed).path_to(target)
    dict_masked = time.perf_counter() - started
    started = time.perf_counter()
    for source, target, allowed in masked_queries:
        arena.point_to_point(source, target, allowed=allowed).path_result(target)
    kernel_masked = time.perf_counter() - started
    masked_nodes = sorted(len(allowed) for _, _, allowed in masked_queries)
    median_masked_nodes = masked_nodes[len(masked_nodes) // 2]

    # -- border many-to-many (with predecessors, as EB/NR need) --------
    started = time.perf_counter()
    for source in borders:
        dijkstra_distances(reference, source)
    dict_many = time.perf_counter() - started
    started = time.perf_counter()
    shape = (len(borders), network.num_nodes)
    arena.many_to_many(borders, np.empty(shape), np.empty(shape, dtype=np.int64))
    kernel_many = time.perf_counter() - started

    sssp_speedup = dict_sssp / kernel_sssp
    rows = [
        [
            "sssp (distances)",
            NUM_SSSP_SOURCES,
            round(dict_sssp * 1000.0, 1),
            round(kernel_sssp * 1000.0, 1),
            f"{sssp_speedup:.1f}x",
        ],
        [
            "sssp (+predecessors)",
            NUM_SSSP_SOURCES,
            round(dict_sssp * 1000.0, 1),
            round(kernel_sssp_pred * 1000.0, 1),
            f"{dict_sssp / kernel_sssp_pred:.1f}x",
        ],
        [
            "point-to-point",
            NUM_QUERIES,
            round(dict_p2p * 1000.0, 1),
            round(kernel_p2p * 1000.0, 1),
            f"{dict_p2p / kernel_p2p:.1f}x",
        ],
        [
            f"masked point-to-point (median {median_masked_nodes} nodes)",
            NUM_QUERIES,
            round(dict_masked * 1000.0, 1),
            round(kernel_masked * 1000.0, 1),
            f"{dict_masked / kernel_masked:.1f}x",
        ],
        [
            f"border many-to-many ({len(borders)} sources)",
            len(borders),
            round(dict_many * 1000.0, 1),
            round(kernel_many * 1000.0, 1),
            f"{dict_many / kernel_many:.1f}x",
        ],
    ]
    table = report.format_table(
        ["Workload", "Runs", "Dict (ms)", "Kernel (ms)", "Speedup"],
        rows,
        title=(
            f"Array SP kernel vs dict Dijkstra -- {network.name} "
            f"({network.num_nodes} nodes, {network.num_edges} edges)"
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
            "min_sssp_speedup_floor": MIN_SSSP_SPEEDUP,
            "sssp": {
                "runs": NUM_SSSP_SOURCES,
                "dict_seconds": dict_sssp,
                "kernel_seconds": kernel_sssp,
                "kernel_with_predecessors_seconds": kernel_sssp_pred,
                "speedup": sssp_speedup,
            },
            "point_to_point": {
                "runs": NUM_QUERIES,
                "dict_seconds": dict_p2p,
                "kernel_seconds": kernel_p2p,
                "speedup": dict_p2p / kernel_p2p,
                "min_speedup_floor": MIN_P2P_SPEEDUP,
            },
            "masked_point_to_point": {
                "runs": NUM_QUERIES,
                "median_allowed_nodes": median_masked_nodes,
                "dict_seconds": dict_masked,
                "kernel_seconds": kernel_masked,
                "speedup": dict_masked / kernel_masked,
                "min_speedup_floor": MIN_MASKED_P2P_SPEEDUP,
            },
            "border_many_to_many": {
                "sources": len(borders),
                "dict_seconds": dict_many,
                "kernel_seconds": kernel_many,
                "speedup": dict_many / kernel_many,
                "min_speedup_floor": MIN_M2M_SPEEDUP,
            },
        },
    )

    assert sssp_speedup >= MIN_SSSP_SPEEDUP, (
        f"kernel SSSP is only {sssp_speedup:.2f}x the dict Dijkstra "
        f"(floor {MIN_SSSP_SPEEDUP}x)"
    )
    p2p_speedup = dict_p2p / kernel_p2p
    assert p2p_speedup >= MIN_P2P_SPEEDUP, (
        f"kernel point-to-point is only {p2p_speedup:.2f}x the dict "
        f"Dijkstra (floor {MIN_P2P_SPEEDUP}x)"
    )
    masked_speedup = dict_masked / kernel_masked
    assert masked_speedup >= MIN_MASKED_P2P_SPEEDUP, (
        f"kernel masked point-to-point is only {masked_speedup:.2f}x the dict "
        f"Dijkstra (floor {MIN_MASKED_P2P_SPEEDUP}x)"
    )
    m2m_speedup = dict_many / kernel_many
    assert m2m_speedup >= MIN_M2M_SPEEDUP, (
        f"kernel many-to-many is only {m2m_speedup:.2f}x the dict "
        f"Dijkstra (floor {MIN_M2M_SPEEDUP}x)"
    )
