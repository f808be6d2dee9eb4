"""Synthetic road-network generators.

The paper evaluates on five real road networks (Milan, Germany, Argentina,
India, San Francisco).  Those datasets are not redistributable, so this module
builds synthetic networks with the same *structural* properties that the
algorithms depend on:

* planar, spatially embedded topology (nodes have meaningful x/y coordinates),
* low average degree (road networks average roughly 2-2.6 directed edges per
  node),
* edge weights correlated with Euclidean length (plus noise, so that no exact
  Euclidean lower bound holds -- the paper explicitly assumes *general*
  networks where A* lower bounds are unavailable), and
* a single weakly connected component.

The generator starts from a perturbed grid (which gives planarity and a road
like degree distribution), removes a random fraction of edges to reach a
target edge count, adds a few "highway" shortcuts, and keeps the largest
component.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.network.graph import RoadNetwork

__all__ = ["GeneratorConfig", "generate_grid_network", "generate_road_network"]


@dataclass
class GeneratorConfig:
    """Parameters controlling synthetic road-network generation.

    Attributes
    ----------
    num_nodes:
        Target number of nodes.  The realized count may be slightly smaller
        because the generator keeps only the largest weakly connected
        component.
    num_edges:
        Target number of *directed* edges.  The generator aims for this count
        by pruning grid edges; the realized count is approximate.
    coordinate_extent:
        Side length of the square area nodes are embedded in.
    weight_noise:
        Relative noise applied to Euclidean edge lengths when deriving
        weights (``0.3`` means weights vary within +/-30% of the Euclidean
        length).  Non-zero noise guarantees the Euclidean distance is *not*
        a valid lower bound, matching the paper's "general network"
        assumption.
    jitter:
        Fraction of one grid cell by which node coordinates are perturbed.
    shortcut_fraction:
        Fraction of nodes that receive an extra longer-range "highway" edge.
    seed:
        Seed for the deterministic pseudo-random generator.
    """

    num_nodes: int
    num_edges: int
    coordinate_extent: float = 10_000.0
    weight_noise: float = 0.3
    jitter: float = 0.35
    shortcut_fraction: float = 0.01
    seed: int = 0


def generate_grid_network(
    rows: int,
    cols: int,
    extent: float = 1_000.0,
    seed: int = 0,
    weight_noise: float = 0.0,
    name: str = "grid",
) -> RoadNetwork:
    """Generate a bidirectional grid network of ``rows x cols`` nodes.

    Grid networks are used heavily in unit tests because their shortest
    paths are easy to reason about (with ``weight_noise=0`` all edges in a
    row/column cost the same).
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    rng = random.Random(seed)
    network = RoadNetwork(name=name)
    dx = extent / max(cols - 1, 1)
    dy = extent / max(rows - 1, 1)

    def node_id(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            network.add_node(node_id(r, c), c * dx, r * dy)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                weight = dx * _noise_factor(rng, weight_noise)
                network.add_bidirectional_edge(node_id(r, c), node_id(r, c + 1), weight)
            if r + 1 < rows:
                weight = dy * _noise_factor(rng, weight_noise)
                network.add_bidirectional_edge(node_id(r, c), node_id(r + 1, c), weight)
    network.clear_delta()  # construction is not a pending update stream
    return network


def generate_road_network(config: GeneratorConfig, name: str = "synthetic") -> RoadNetwork:
    """Generate a synthetic road network per :class:`GeneratorConfig`.

    The construction follows four steps:

    1. lay out an approximately square grid with jittered coordinates,
    2. connect neighboring grid cells bidirectionally,
    3. prune random edges until the directed edge count approaches the
       target (never disconnecting the graph on purpose -- the largest
       component is kept at the end), and
    4. add sparse longer-range shortcuts ("highways").
    """
    if config.num_nodes < 4:
        raise ValueError("synthetic networks need at least 4 nodes")
    rng = random.Random(config.seed)

    cols = max(2, int(math.sqrt(config.num_nodes)))
    rows = max(2, (config.num_nodes + cols - 1) // cols)
    extent = config.coordinate_extent
    dx = extent / max(cols - 1, 1)
    dy = extent / max(rows - 1, 1)

    network = RoadNetwork(name=name)
    positions: List[Tuple[int, float, float]] = []
    count = 0
    for r in range(rows):
        for c in range(cols):
            if count >= config.num_nodes:
                break
            x = c * dx + rng.uniform(-config.jitter, config.jitter) * dx
            y = r * dy + rng.uniform(-config.jitter, config.jitter) * dy
            network.add_node(count, x, y)
            positions.append((count, x, y))
            count += 1

    def node_id(r: int, c: int) -> Optional[int]:
        idx = r * cols + c
        return idx if idx < count else None

    # Candidate bidirectional grid edges.
    candidates: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            here = node_id(r, c)
            if here is None:
                continue
            right = node_id(r, c + 1) if c + 1 < cols else None
            down = node_id(r + 1, c) if r + 1 < rows else None
            if right is not None:
                candidates.append((here, right))
            if down is not None:
                candidates.append((here, down))

    # Each kept candidate contributes two directed edges. Shortcuts add a few
    # more, so aim slightly below the target.
    num_shortcuts = int(config.shortcut_fraction * count)
    target_pairs = max(count - 1, (config.num_edges - 2 * num_shortcuts) // 2)
    rng.shuffle(candidates)

    # Keep a random spanning tree of the grid first so the network stays
    # connected (real road networks are), then fill up to the target with the
    # remaining candidates.
    parent = list(range(count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    tree_pairs = []
    extra_pairs = []
    for a, b in candidates:
        root_a, root_b = find(a), find(b)
        if root_a != root_b:
            parent[root_a] = root_b
            tree_pairs.append((a, b))
        else:
            extra_pairs.append((a, b))
    remaining = max(0, target_pairs - len(tree_pairs))
    kept = tree_pairs + extra_pairs[:remaining]

    for a, b in kept:
        euclid = network.euclidean_distance(a, b)
        weight = max(euclid, 1e-9) * _noise_factor(rng, config.weight_noise)
        network.add_bidirectional_edge(a, b, weight)

    # Highway shortcuts between random node pairs that are a few cells apart.
    node_ids = network.node_ids()
    for _ in range(num_shortcuts):
        a = rng.choice(node_ids)
        b = rng.choice(node_ids)
        if a == b:
            continue
        euclid = network.euclidean_distance(a, b)
        # Highways are faster than surface streets: weight below Euclidean
        # noise ceiling but never below 60% of the straight-line length.
        weight = max(euclid * rng.uniform(0.6, 0.9), 1e-9)
        network.add_bidirectional_edge(a, b, weight)

    connected = network.largest_component()
    connected.name = name
    return connected


def _noise_factor(rng: random.Random, noise: float) -> float:
    """Return a multiplicative noise factor in ``[1 - noise, 1 + noise]``."""
    if noise <= 0:
        return 1.0
    return 1.0 + rng.uniform(-noise, noise)
