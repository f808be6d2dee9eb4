"""The small-graph searches on the kernel's rows against their dict loops.

The memory-bound client's region compression and overlay search
(:mod:`repro.air.memory_bound`) run
:func:`repro.network.algorithms.kernel.row_search` over local rows, and
HiTi's super-edge computation (:meth:`HiTiIndex._border_distances`) runs
batched compiled sweeps over a graph derived from the snapshot.  Each
output must equal the dict Dijkstra it replaced (``tests/oracles/
memory_bound.py``), insertion order included.  Networks are
hypothesis-drawn with integer weights, parallel edges, a diamond that forces an equal-distance tie and a terminal nothing
reaches; node ids are inserted and handed over in shuffled order, so only
the id order of the local positions makes heap ties break as the dict
loop's do.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import memory_bound as oracle
from repro.air.memory_bound import (
    SuperEdgeGraph,
    compress_region,
    shortest_path_on_overlay,
)
from repro.air.records import DEFAULT_LAYOUT
from repro.index.hiti import HiTiIndex
from repro.network.algorithms.paths import INFINITY
from repro.network.graph import RoadNetwork

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: The tie diamond ``0 -> {1, 2} -> 3`` (weight 1 each) and the
#: out-edges-only node ``LONELY(n) = n - 1``.
TOP, LEFT, RIGHT, BOTTOM = 0, 1, 2, 3


def tie_network(seed: int, num_nodes: int) -> RoadNetwork:
    rng = random.Random(seed)
    lonely = num_nodes - 1
    edges = [(TOP, LEFT, 1.0), (TOP, RIGHT, 1.0), (LEFT, BOTTOM, 1.0), (RIGHT, BOTTOM, 1.0)]
    edges.append((LEFT, BOTTOM, 2.0))  # a parallel edge on the diamond
    edges.append((4, 5, 1.0))
    inner = list(range(4, lonely))
    for a, b in zip(inner, inner[1:]):
        edges += [(a, b, float(rng.randint(1, 3))), (b, a, float(rng.randint(1, 3)))]
    for _ in range(num_nodes):
        a, b = rng.randrange(lonely), rng.randrange(lonely)
        if a != b and (a, b) != (TOP, BOTTOM):
            edges.append((a, b, float(rng.randint(1, 3))))
    for a, b, _ in rng.sample(edges[6:], max(1, len(edges) // 8)):
        edges.append((a, b, float(rng.randint(1, 3))))  # more parallel edges
    edges += [(lonely, rng.randrange(lonely), float(rng.randint(1, 3))) for _ in range(2)]
    network = RoadNetwork(name=f"memory-bound-ties-{seed}")
    for node in rng.sample(range(num_nodes), num_nodes):
        network.add_node(node, float(node), rng.random())
    for a, b, w in rng.sample(edges, len(edges)):
        network.add_edge(a, b, w)
    network.clear_delta()
    return network


def draw_regions(network: RoadNetwork, rng: random.Random, count: int):
    """``count`` disjoint received regions as ``(nodes, borders, extras)``.

    The first holds the diamond and the unreachable terminal; every list
    is shuffled, borders name a node outside the region (one outside the
    network when a single region takes every node), and extras may too."""
    ids = network.node_ids()
    lonely = max(ids)
    rest = [node for node in ids if node not in (TOP, LEFT, RIGHT, BOTTOM, lonely)]
    rng.shuffle(rest)
    chunks = [rest[i::count] for i in range(count)]
    chunks[0] += [TOP, LEFT, RIGHT, BOTTOM, lonely]
    regions = []
    for nodes in chunks:
        rng.shuffle(nodes)
        outside = rng.choice([node for node in ids if node not in nodes] or [lonely + 1])
        borders = rng.sample(nodes, max(1, len(nodes) // 2)) + [outside]
        extras = rng.sample(ids, rng.randint(0, 2))
        regions.append((nodes, borders, extras))
    first_nodes, first_borders, first_extras = regions[0]
    regions[0] = (first_nodes, first_borders + [TOP, BOTTOM], first_extras + [lonely])
    return regions


def assert_diamond_tie(network: RoadNetwork, region_nodes) -> None:
    """Two in-region edges into ``BOTTOM`` achieve its label from ``TOP``."""
    received = set(region_nodes)
    adjacency = {
        node: [(v, w) for v, w in network.neighbors(node) if v in received]
        for node in received
    }
    distances, _ = oracle.dijkstra_local(adjacency, TOP, {BOTTOM})
    achieving = {
        u
        for u in received
        for v, w in adjacency[u]
        if v == BOTTOM and u in distances and distances[u] + w == distances[BOTTOM]
    }
    assert len(achieving) >= 2


def overlay_state(overlay: SuperEdgeGraph):
    return (
        [(node, list(row)) for node, row in overlay.adjacency.items()],
        list(overlay.expansions.items()),
        overlay.size_bytes,
    )


def compress_both(network, regions, rng):
    """Compress every region into a production and an oracle overlay with
    the same options, asserting equal return values along the way."""
    got, want = SuperEdgeGraph(), SuperEdgeGraph()
    for nodes, borders, extras in regions:
        options = dict(
            keep_expansions=rng.random() < 0.7,
            expansion_terminals=rng.choice([None, extras]),
        )
        added = compress_region(got, network, nodes, borders, extras, DEFAULT_LAYOUT, **options)
        assert added == oracle.compress_region(
            want, network, nodes, borders, extras, DEFAULT_LAYOUT, **options
        )
    return got, want


@SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(8, 30),
    num_regions=st.integers(1, 3),
)
def test_compress_region_equals_the_dict_loop(seed, num_nodes, num_regions):
    """Super-edges and border edges in insertion order, expansions,
    ``size_bytes`` and each call's return value."""
    network = tie_network(seed, num_nodes)
    rng = random.Random(seed)
    regions = draw_regions(network, rng, num_regions)
    assert_diamond_tie(network, regions[0][0])
    got, want = compress_both(network, regions, rng)
    assert overlay_state(got) == overlay_state(want)
    lonely = num_nodes - 1
    assert not any(target == lonely for _, row in got.adjacency.items() for target, _ in row)


@SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(8, 30),
    num_regions=st.integers(1, 3),
)
def test_overlay_search_equals_the_dict_loop(seed, num_nodes, num_regions):
    """Distance, expanded path and settled count over every pair of overlay
    nodes, plus endpoints outside the overlay."""
    network = tie_network(seed, num_nodes)
    rng = random.Random(seed)
    overlay, _ = compress_both(network, draw_regions(network, rng, num_regions), rng)
    nodes = list(overlay.adjacency) + [num_nodes + 5]
    unreachable = 0
    for source in nodes:
        for target in nodes:
            got = shortest_path_on_overlay(overlay, source, target)
            assert got == oracle.shortest_path_on_overlay(overlay, source, target)
            unreachable += got[0] == INFINITY
    assert unreachable


@SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(8, 30),
    num_regions=st.integers(1, 3),
)
def test_border_distances_equal_the_dict_loop(seed, num_nodes, num_regions):
    """HiTi's super-edges, as a dict in key order, on a region's induced
    adjacency and on a super-edge overlay whose border list names a node
    the overlay does not hold, each passed as edge arrays over the
    network's snapshot."""
    network = tie_network(seed, num_nodes)
    rng = random.Random(seed)
    regions = draw_regions(network, rng, num_regions)
    nodes, borders, _ = regions[0]
    received = set(nodes)
    induced = {
        node: [(v, w) for v, w in network.neighbors(node) if v in received]
        for node in nodes
    }
    inside = [node for node in borders if node in received]
    overlay, _ = compress_both(network, regions, rng)
    terminals = rng.sample(list(overlay.adjacency), min(6, len(overlay.adjacency)))
    absent = [node for node in sorted(network.node_ids()) if node not in overlay.adjacency]
    csr = network.ensure_csr()
    for adjacency, border_nodes in (
        (induced, inside),
        (overlay.adjacency, terminals + absent[:1]),
    ):
        edges = [(u, v, w) for u, row in adjacency.items() for v, w in row]
        got = HiTiIndex._border_distances(
            csr,
            np.array([csr.index_of[u] for u, _, _ in edges], dtype=np.int64),
            np.array([csr.index_of[v] for _, v, _ in edges], dtype=np.int64),
            np.array([w for _, _, w in edges], dtype=np.float64),
            border_nodes,
        )
        want = oracle.all_pairs_border_distances(adjacency, border_nodes)
        assert list(got.items()) == list(want.items())
