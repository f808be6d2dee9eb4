"""Bulk region location against the scalar ``locate`` it replaces.

``Partitioning`` takes every node's region from one ``locate_many`` call,
while clients keep locating single points with ``locate``: the two must
agree everywhere.  Points are drawn on a coarse integer lattice, so kd
splitting values repeat and many queries land exactly on a split (``<=``
goes left); grid queries reach well outside the bounds (clamped).  The
partitioning itself is checked against a per-node scalar rebuild: region
of every node, members and border nodes, each in node insertion order.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning
from repro.partitioning.grid import GridPartitioner
from repro.partitioning.kdtree import KDTreePartitioner

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

lattice = st.integers(-3, 12).map(float)
points = st.lists(st.tuples(lattice, lattice), min_size=1, max_size=40)


def scalar(locator, xs, ys):
    return [locator.locate(x, y) for x, y in zip(xs, ys)]


@SETTINGS
@given(
    build=points,
    queries=points,
    num_regions=st.sampled_from([1, 2, 4, 8, 16, 32]),
    decoded=st.booleans(),
)
def test_kdtree_locate_many_equals_locate(build, queries, num_regions, decoded):
    """Bulk and scalar lookups agree, on the build's points, on random
    lattice points and on every point whose coordinates are split values;
    a tree decoded from its splitting values (the client's) agrees too."""
    tree = KDTreePartitioner.build(build, num_regions)
    if decoded:
        tree = KDTreePartitioner.from_splitting_values(
            tree.splitting_values(), num_regions
        )
    splits = sorted(set(tree.splitting_values()))
    on_splits = [(x, y) for x in splits for y in splits]
    everything = build + queries + on_splits
    xs = [x for x, _ in everything]
    ys = [y for _, y in everything]
    located = tree.locate_many(np.array(xs), np.array(ys))
    assert located.dtype == np.int64
    assert located.tolist() == scalar(tree, xs, ys)


@SETTINGS
@given(
    corner=st.tuples(lattice, lattice),
    extent=st.tuples(st.integers(0, 9).map(float), st.integers(0, 9).map(float)),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    queries=st.lists(
        st.tuples(st.floats(-40, 40, width=32), st.floats(-40, 40, width=32)),
        min_size=1,
        max_size=40,
    ),
)
def test_grid_locate_many_equals_locate(corner, extent, rows, cols, queries):
    """Truncation and clamping agree, including points far outside the
    bounds, on the cell boundaries and on a degenerate (zero-width) box."""
    min_x, min_y = corner
    grid = GridPartitioner((min_x, min_y, min_x + extent[0], min_y + extent[1]), rows, cols)
    boundaries = [
        (min_x + c * extent[0] / cols, min_y + r * extent[1] / rows)
        for r in range(rows + 1)
        for c in range(cols + 1)
    ]
    everything = queries + boundaries
    xs = [x for x, _ in everything]
    ys = [y for _, y in everything]
    located = grid.locate_many(np.array(xs), np.array(ys))
    assert located.dtype == np.int64
    assert located.tolist() == scalar(grid, xs, ys)


def shuffled_network(seed: int, num_nodes: int) -> RoadNetwork:
    """Lattice nodes inserted in shuffled id order, random directed edges."""
    rng = random.Random(seed)
    network = RoadNetwork()
    ids = rng.sample(range(3 * num_nodes), num_nodes)
    for node in ids:
        network.add_node(node, float(rng.randint(0, 9)), float(rng.randint(0, 9)))
    for _ in range(2 * num_nodes):
        u, v = rng.sample(ids, 2)
        network.add_edge(u, v, float(rng.randint(1, 5)))
    network.clear_delta()
    return network


@SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(2, 40),
    num_regions=st.sampled_from([1, 2, 4, 8]),
    grid=st.booleans(),
)
def test_partitioning_equals_a_per_node_scalar_rebuild(seed, num_nodes, num_regions, grid):
    network = shuffled_network(seed, num_nodes)
    if grid:
        locator = GridPartitioner(network.bounding_box(), num_regions, 2)
    else:
        locator = KDTreePartitioner.build(
            [network.coordinates(node) for node in network.node_ids()], num_regions
        )
    partitioning = Partitioning(network, locator)

    region_of = {
        node: locator.locate(*network.coordinates(node)) for node in network.node_ids()
    }
    members = [[] for _ in range(locator.num_regions)]
    border = [[] for _ in range(locator.num_regions)]
    for node, region in region_of.items():
        members[region].append(node)
        neighbors = [n for n, _ in network.neighbors(node)] + [
            n for n, _ in network.in_neighbors(node)
        ]
        if any(region_of[n] != region for n in neighbors):
            border[region].append(node)
    for node, region in region_of.items():
        assert partitioning.region_of(node) == region
    node_region = partitioning.node_region
    assert node_region.dtype == np.int64 and not node_region.flags.writeable
    assert node_region.tolist() == [region_of[node] for node in network.ensure_csr().ids]
    for region in range(locator.num_regions):
        assert partitioning.nodes_in_region(region) == members[region]
        assert partitioning.border_nodes(region) == border[region]
