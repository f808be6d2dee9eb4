"""Unit tests for the shared EB/NR border-path pre-computation."""

import dataclasses
import random
import tracemalloc

import numpy as np
import pytest

from oracles import border_paths as oracle
from repro.air.border_paths import BorderPathPrecomputation
from repro.network import datasets
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.algorithms.paths import INFINITY
from repro.network.delta import WeightChange
from repro.network.graph import RoadNetwork
from repro.partitioning.kdtree import build_kdtree_partitioning


@pytest.fixture(scope="module")
def precomputation(small_network, small_partitioning):
    return BorderPathPrecomputation(small_network, small_partitioning)


class TestDistanceMatrix:
    def test_min_never_exceeds_max(self, precomputation):
        n = precomputation.num_regions
        for i in range(n):
            for j in range(n):
                minimum = precomputation.min_distance[i][j]
                maximum = precomputation.max_distance[i][j]
                if maximum != INFINITY:
                    assert minimum <= maximum + 1e-9

    def test_min_distance_matches_direct_computation(self, small_network, small_partitioning, precomputation):
        """Spot-check a few region pairs against brute-force Dijkstra."""
        rng = random.Random(3)
        regions = [r for r in range(small_partitioning.num_regions) if small_partitioning.border_nodes(r)]
        for _ in range(4):
            i, j = rng.choice(regions), rng.choice(regions)
            if i == j:
                continue
            expected = min(
                (
                    shortest_path(small_network, a, b).distance
                    for a in small_partitioning.border_nodes(i)
                    for b in small_partitioning.border_nodes(j)
                ),
                default=INFINITY,
            )
            assert precomputation.min_distance[i][j] == pytest.approx(expected)

    def test_upper_bound_uses_max_entry(self, precomputation):
        assert precomputation.upper_bound(0, 1) == precomputation.max_distance[0][1]


class TestCrossBorderNodes:
    def test_border_nodes_are_cross_border(self, small_partitioning, precomputation):
        for region in range(small_partitioning.num_regions):
            for border in small_partitioning.border_nodes(region):
                assert border in precomputation.cross_border_nodes

    def test_cross_border_plus_local_partitions_each_region(self, small_partitioning, precomputation):
        for region in range(small_partitioning.num_regions):
            cross = set(precomputation.cross_border_in_region(region))
            local = set(precomputation.local_in_region(region))
            assert cross.isdisjoint(local)
            assert cross | local == set(small_partitioning.nodes_in_region(region))


class TestNeededRegions:
    def test_eb_needed_regions_include_endpoints(self, precomputation):
        for i in range(precomputation.num_regions):
            for j in range(precomputation.num_regions):
                needed = precomputation.needed_regions_eb(i, j)
                assert i in needed and j in needed

    def test_nr_needed_regions_subset_of_eb(self, precomputation):
        """NR's traversed-region sets are at least as selective as EB's ellipse."""
        total_nr = 0
        total_eb = 0
        n = precomputation.num_regions
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                total_nr += len(precomputation.needed_regions_nr(i, j))
                total_eb += len(precomputation.needed_regions_eb(i, j))
        assert total_nr <= total_eb

    def test_nr_needed_regions_include_endpoints(self, precomputation):
        for i in range(precomputation.num_regions):
            for j in range(precomputation.num_regions):
                needed = precomputation.needed_regions_nr(i, j)
                assert i in needed and j in needed

    def test_traversed_regions_contain_endpoint_regions_when_reachable(self, precomputation):
        for (i, j), regions in precomputation.traversed_regions.items():
            assert i in regions
            assert j in regions


def integer_weight_network(seed: int, num_nodes: int = 36) -> RoadNetwork:
    """Random directed network with small integer weights, so distance ties
    are exact, plus one node with out-edges only -- a tail no other source
    reaches -- and one node only it reaches."""
    rng = random.Random(seed)
    weights = {}
    for node in range(1, num_nodes - 1):
        weights[(node - 1, node)] = weights[(node, node - 1)] = rng.randint(1, 9)
    for _ in range(2 * num_nodes):
        a, b = rng.randrange(num_nodes - 1), rng.randrange(num_nodes - 1)
        if a != b:
            weights[(a, b)] = rng.randint(1, 9)
    lonely, hidden = num_nodes - 1, num_nodes
    weights[(lonely, 0)] = 3
    weights[(lonely, num_nodes // 2)] = 4
    weights[(lonely, hidden)] = 2
    network = RoadNetwork(name=f"integer-{seed}")
    for node in range(num_nodes + 1):
        network.add_node(node, rng.uniform(0, 100), rng.uniform(0, 100))
    for (a, b), weight in weights.items():
        network.add_edge(a, b, float(weight))
    network.clear_delta()
    return network


def random_change_batch(precomputation, rng: random.Random, size: int = 4, lonely=None):
    """Increases, decreases, exact decrease-ties, no-ops and unreached tails
    (the edges out of ``lonely``, by default the network's second-highest
    id as :func:`integer_weight_network` places it)."""
    network = precomputation.network
    index_of = network.ensure_csr().index_of
    if lonely is None:
        lonely = max(network.node_ids()) - 1
    pairs = sorted({(edge.source, edge.target) for edge in network.edges()})
    inner = [pair for pair in pairs if pair[0] != lonely]
    tails = [pair for pair in pairs if pair[0] == lonely]
    batch = []
    for u, v in rng.sample(inner, size - 1) + [rng.choice(tails)]:
        old = network.edge_weight(u, v)
        kind = rng.choice(["up", "down", "tie", "noop"])
        new = old
        if kind == "up":
            new = old + rng.randint(1, 5)
        elif kind == "down":
            new = max(1.0, old - rng.randint(1, 5))
        elif kind == "tie":
            # Lower the edge onto some source's d(v) - d(u): a decrease that
            # exactly ties the current label of v.
            dist = rng.choice(precomputation.block.dist.tolist())
            gap = dist[index_of[v]] - dist[index_of[u]]
            if 0 < gap < old:
                new = gap
        batch.append(WeightChange(u, v, old, float(new)))
    return batch


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_affected_sources_equals_oracle_scan(seed):
    """The vectorized affected-source test equals the per-source scan over
    random batches, before and after refreshes rewrite the label matrix."""
    network = integer_weight_network(seed)
    partitioning = build_kdtree_partitioning(network, 4)
    precomputation = BorderPathPrecomputation(network, partitioning)
    rng = random.Random(seed + 40)
    sources = len(precomputation.block.dist)
    partial_hits = 0
    for _ in range(12):
        batch = random_change_batch(precomputation, rng)
        got = precomputation.affected_sources(batch)
        assert got == oracle.affected_sources(precomputation, batch)
        partial_hits += 0 < len(got) < sources
        changes = network.apply_updates(
            [(c.source, c.target, c.new_weight) for c in batch if not c.is_noop]
        )
        precomputation.refresh(changes)
        network.clear_delta()
    assert partial_hits, "no batch separated affected from unaffected sources"
    want = oracle.aggregates(network, partitioning)
    assert precomputation.min_distance == want["min_distance"]
    assert precomputation.max_distance == want["max_distance"]
    assert precomputation.cross_border_nodes == want["cross_border_nodes"]
    assert precomputation.traversed_regions == want["traversed_regions"]


def test_build_peaks_within_twice_the_block():
    """The batched sweep writes its labels straight into the block, so
    building the border paths of the mixed-1k network (germany 0.035, seed
    31, 16 regions) allocates at most twice the block's bytes at its peak."""
    network = datasets.load("germany", scale=0.035, seed=31)
    partitioning = build_kdtree_partitioning(network, 16)
    network.ensure_csr()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        block = BorderPathPrecomputation(network, partitioning).block
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        if started:
            tracemalloc.stop()
    nbytes = sum(getattr(block, f.name).nbytes for f in dataclasses.fields(block))
    assert peak <= 2 * nbytes, f"peak {peak} B for a {nbytes} B block"


@pytest.mark.parametrize("num_regions", [4, 8])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_batched_repair_equals_the_row_by_row_oracle(seed, num_regions):
    """``_repair_rows`` repairs every affected row at once; the queue-based
    per-row repair it replaced (``oracle.repair_row``) must land on the
    same labels, the same tie-broken predecessors and the same re-fold
    decision for every row, batch after batch.  A dead-end spur of three
    nodes, drawn on top of node 5 (so inside its region, with no border
    among them), changes weight in every batch: rows whose repair moves
    labels but no border target's path must skip the re-fold."""
    num_nodes = 80
    network = integer_weight_network(seed, num_nodes=num_nodes)
    spur = [5, num_nodes + 1, num_nodes + 2, num_nodes + 3]
    for node in spur[1:]:
        network.add_node(node, *network.coordinates(5))
    for u, v in zip(spur, spur[1:]):
        network.add_edge(u, v, 2.0)
    network.clear_delta()
    partitioning = build_kdtree_partitioning(network, num_regions)
    precomputation = BorderPathPrecomputation(network, partitioning)
    rng = random.Random(seed + 70)
    border_indexes = set(precomputation._roster().index.tolist())
    skipped = refolded = 0
    for step in range(12):
        batch = random_change_batch(precomputation, rng, lonely=num_nodes - 1)
        weight = network.edge_weight(5, spur[1])
        batch.append(WeightChange(5, spur[1], weight, 1.0 + step % 3))
        changes = network.apply_updates(
            [(c.source, c.target, c.new_weight) for c in batch if not c.is_noop]
        )
        csr = network.ensure_csr()
        rows = precomputation.affected_sources(changes)
        repair = [
            (csr.index_of[c.source], csr.index_of[c.target], c.old_weight, c.new_weight)
            for c in changes
            if not c.is_noop
        ]
        batched, by_row = precomputation.shadow(), precomputation.shadow()
        refold = batched._repair_rows(np.array(rows, dtype=np.int64), repair, csr)
        want = [
            row for row in rows if oracle.repair_row(by_row, row, repair, csr, border_indexes)
        ]
        assert refold.tolist() == want
        assert batched.block.dist.tobytes() == by_row.block.dist.tobytes()
        assert batched.block.pred.tobytes() == by_row.block.pred.tobytes()
        before = precomputation.block
        changed = np.flatnonzero(
            (batched.block.dist != before.dist).any(axis=1)
            | (batched.block.pred != before.pred).any(axis=1)
        )
        skipped += len(set(changed.tolist()) - set(want))
        refolded += len(want)
        precomputation.refresh(changes)
        network.clear_delta()
    assert skipped and refolded, "repaired rows must both skip and trigger re-folds"
