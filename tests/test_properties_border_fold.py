"""The border-path block's batched fold against the record-at-a-time oracle.

``BorderPathPrecomputation._fold`` derives every row's cross-border nodes,
finite-pair count, per-region min/max and traversed-region masks for whole
blocks of sources: an upward walk from the border targets marks the cross
cells, and pointer doubling over those cells alone gives the masks;
``_aggregate`` reduces the rows by source region.  Here both are checked
against
``tests/oracles/border_paths.py``, which folds the same ``dist``/``pred``
labels one source and one predecessor chain at a time, over hypothesis-drawn
integer-weight networks with exact ties, unreachable nodes and region counts on both sides of the 64-bit mask word boundary,
and on hand-drawn networks for the walk's edge cases: chains deeper than
2**8 hops, targets on other targets' paths, rows without a finite target
and rows sharing no cross-border node.

The serialized state keeps only the ``dist`` labels, so a restore derives
every other column through ``_fold`` too, and the predecessors through the
kernel's tree derivation; that block must equal the built one, column for
column, before and after refreshes, also when the first block use comes
after the network took a weight batch.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import border_paths as oracle
from repro import air
from repro.air.border_paths import BorderPathPrecomputation, StaleLabelsError
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning
from repro.serialize.codec import decode_value, encode_value

#: Every per-source column of the block.
BLOCK_COLUMNS = (
    "dist", "pred", "cross", "finite_pairs", "min_to", "max_to", "reach", "traversed"
)


class _Assigned:
    """A locator placing node ``i`` (drawn at ``x = i``) in ``regions[i]``."""

    def __init__(self, num_regions: int, regions) -> None:
        self._num_regions = num_regions
        self._regions = regions

    @property
    def num_regions(self) -> int:
        return self._num_regions

    def locate(self, x: float, y: float) -> int:
        return self._regions[int(x)]

    def locate_many(self, xs, ys) -> np.ndarray:
        return np.asarray(self._regions, dtype=np.int64)[np.asarray(xs, dtype=np.int64)]


def tie_network(seed: int, num_nodes: int) -> RoadNetwork:
    """Random directed network with integer weights in ``[1, 4]`` -- exact
    ties everywhere -- plus a node with out-edges only and an isolated node,
    neither reached by anyone."""
    rng = random.Random(seed)

    def weight() -> float:
        return float(rng.randint(1, 4))

    network = RoadNetwork(name=f"ties-{seed}")
    for node in range(num_nodes):
        network.add_node(node, float(node), 0.0)
    inner = num_nodes - 2
    edges = {}
    for node in range(1, inner):
        edges[(node - 1, node)] = weight()
        edges[(node, node - 1)] = weight()
    for _ in range(inner):
        a, b = rng.randrange(inner), rng.randrange(inner)
        if a != b:
            edges[(a, b)] = weight()
    edges[(inner, 0)] = weight()  # ``inner`` has out-edges only
    for (a, b), w in edges.items():
        network.add_edge(a, b, w)
    network.clear_delta()
    return network


def tie_partitioning(network: RoadNetwork, num_regions: int, seed: int) -> Partitioning:
    """Random regions, with the highest region and (past one word) region
    63 always populated, so masks use the top bit of each word."""
    rng = random.Random(seed)
    regions = [rng.randrange(num_regions) for _ in range(network.num_nodes)]
    regions[0] = num_regions - 1
    if num_regions > 64:
        regions[1] = 63
    return Partitioning(network, _Assigned(num_regions, regions))


def assert_matches_oracle(precomputation: BorderPathPrecomputation) -> None:
    """Derived block columns and aggregates equal the record-at-a-time fold's."""
    assert oracle.block_records(precomputation) == oracle.records(precomputation)
    want = oracle.aggregates_from_records(
        oracle.records(precomputation), precomputation.num_regions
    )
    assert precomputation.min_distance == want["min_distance"]
    assert precomputation.max_distance == want["max_distance"]
    assert precomputation.cross_border_nodes == want["cross_border_nodes"]
    assert precomputation.num_border_pairs == want["num_border_pairs"]
    # Insertion order too: the aggregates' wire layout follows it.
    assert list(precomputation.traversed_regions.items()) == list(
        want["traversed_regions"].items()
    )


def assert_refold_restores(precomputation: BorderPathPrecomputation, rows) -> None:
    """Re-folding ``rows`` from scrambled derived columns restores the
    block.  Target regions without border nodes are never reached, so only
    the others fold."""
    block = precomputation.block
    rows = np.asarray(rows, dtype=np.int64)
    expected = {column: getattr(block, column).copy() for column in BLOCK_COLUMNS}
    at = (rows[:, None], precomputation._roster().regions)
    block.cross[rows] = True
    block.finite_pairs[rows] = -1
    block.min_to[at] = 0.0
    block.max_to[at] = 0.0
    block.reach[at] = True
    block.traversed[at] = np.uint64(0xFFFF)
    precomputation._fold(rows)
    for column in BLOCK_COLUMNS:
        assert np.array_equal(getattr(block, column), expected[column]), column


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    num_regions=st.sampled_from([4, 64, 65, 128]),
    num_nodes=st.integers(8, 72),
)
def test_fold_equals_the_record_oracle(seed, num_regions, num_nodes):
    network = tie_network(seed, num_nodes)
    partitioning = tie_partitioning(network, num_regions, seed)
    precomputation = BorderPathPrecomputation(network, partitioning)
    assert_matches_oracle(precomputation)

    # Re-folding any subset of rows (across fold-block boundaries) from
    # scrambled derived columns lands on the same block.
    rows = np.flatnonzero(
        np.random.default_rng(seed).random(len(precomputation.block.dist)) < 0.6
    )
    assert_refold_restores(precomputation, rows)


def test_nr_build_at_128_regions_matches_oracle_aggregates():
    network = generate_road_network(
        GeneratorConfig(num_nodes=300, num_edges=700, seed=5), name="regions-128"
    )
    network.clear_delta()
    scheme = air.create("NR", network, num_regions=128)
    precomputation = scheme.precomputation
    want = oracle.aggregates(network, scheme.partitioning)
    assert precomputation.min_distance == want["min_distance"]
    assert precomputation.max_distance == want["max_distance"]
    assert precomputation.cross_border_nodes == want["cross_border_nodes"]
    assert precomputation.traversed_regions == want["traversed_regions"]
    assert precomputation.num_border_pairs == want["num_border_pairs"]
    assert any(max(regions) >= 64 for regions in want["traversed_regions"].values())


def assert_same_block(got: BorderPathPrecomputation, want: BorderPathPrecomputation) -> None:
    for column in BLOCK_COLUMNS:
        assert np.array_equal(getattr(got.block, column), getattr(want.block, column)), column


@pytest.mark.parametrize("num_regions", [1, 6, 65])
@pytest.mark.parametrize("seed", [4, 11])
def test_restore_derives_the_built_block(seed, num_regions):
    """A restore from the serialized labels folds a block equal to the
    built one in all eight columns, and stays equal through refreshes.
    One region means a roster without border nodes: empty label bytes."""
    network = tie_network(seed, 48)
    partitioning = tie_partitioning(network, num_regions, seed)
    built = BorderPathPrecomputation(network, partitioning)
    assert bool(built._all_border) == (num_regions > 1)
    state = decode_value(encode_value(built.state()))
    restored = BorderPathPrecomputation.from_state(network, partitioning, state)
    # Undecoded labels re-publish as they came.
    assert restored.state()["labels"] == built.state()["labels"]
    assert_same_block(restored, built)
    assert_matches_oracle(restored)
    rng = random.Random(seed)
    edges = sorted((e.source, e.target) for e in network.edges())
    for _ in range(4):
        changes = network.apply_updates(
            [(u, v, float(rng.randint(1, 6))) for u, v in rng.sample(edges, 4)]
        )
        assert built.refresh(changes) == restored.refresh(changes)
        network.clear_delta()
        assert_same_block(restored, built)
        assert restored.state() == built.state()
    assert_matches_oracle(restored)


@pytest.mark.parametrize("seed", [4, 11, 23])
def test_restore_updated_before_first_use_equals_scratch(seed):
    """Restore, patch the network's weights, then refresh: the refresh's
    first block use derives the predecessors over the labels' own
    (pre-batch) weights.  Exact integer ties make a derivation over the
    patched weights pick other predecessors.  The state keeps ``dist``
    labels only."""
    network = tie_network(seed, 48)
    partitioning = tie_partitioning(network, 6, seed)
    rng = random.Random(seed)
    edges = sorted((e.source, e.target) for e in network.edges())
    state = decode_value(encode_value(BorderPathPrecomputation(network, partitioning).state()))
    assert set(state["labels"]) == {"dist"}
    for _ in range(3):
        restored = BorderPathPrecomputation.from_state(network, partitioning, state)
        changes = network.apply_updates(
            [(u, v, float(rng.randint(1, 6))) for u, v in rng.sample(edges, 5)]
        )
        restored.refresh(changes)
        network.clear_delta()
        scratch = BorderPathPrecomputation(network, partitioning)
        assert_same_block(restored, scratch)
        assert {**restored.state(), "seconds": 0} == {**scratch.state(), "seconds": 0}
        state = decode_value(encode_value(restored.state()))


def test_stale_restore_raises_instead_of_deriving():
    """A block read after a batch it is not told of raises, and so does an
    ``affected_sources`` naming a batch that does not undo the network's
    moves; the read naming the whole batch derives."""
    network = tie_network(5, 48)
    partitioning = tie_partitioning(network, 6, 5)
    built = BorderPathPrecomputation(network, partitioning)
    state = decode_value(encode_value(built.state()))
    restored = BorderPathPrecomputation.from_state(network, partitioning, state)
    edges = sorted((e.source, e.target) for e in network.edges())
    changes = network.apply_updates(
        [(u, v, network.edge_weight(u, v) + 1.0) for u, v in edges[:3]]
    )
    with pytest.raises(StaleLabelsError):
        restored.block
    with pytest.raises(StaleLabelsError):
        restored.affected_sources(changes[:2])
    assert restored.affected_sources(changes) == built.affected_sources(changes)
    assert_same_block(restored, built)


def precomputation_over(edges, regions) -> BorderPathPrecomputation:
    """Border paths over nodes ``0..len(regions)-1`` (node ``i`` in
    ``regions[i]``) joined by the directed ``(a, b, weight)`` edges."""
    network = RoadNetwork(name="hand-drawn")
    for node in range(len(regions)):
        network.add_node(node, float(node), 0.0)
    for a, b, weight in edges:
        network.add_edge(a, b, weight)
    network.clear_delta()
    partitioning = Partitioning(network, _Assigned(max(regions) + 1, regions))
    return BorderPathPrecomputation(network, partitioning)


def two_way(pairs):
    return [(a, b, 1.0) for a, b in pairs] + [(b, a, 1.0) for a, b in pairs]


def record_of(precomputation: BorderPathPrecomputation, node: int):
    records = oracle.block_records(precomputation)
    return next(record for record in records if record.node == node)


def test_fold_follows_chains_deeper_than_256_hops():
    """A 600-node two-way chain in six 100-node regions: the border node 99
    reaches the border node 500 over 401 hops, past the 2**8 that eight
    doubling passes cover."""
    precomputation = precomputation_over(
        two_way((node, node + 1) for node in range(599)), [node // 100 for node in range(600)]
    )
    pred = precomputation.block.pred[0]
    assert precomputation._all_border[0] == (99, 0)
    hops, node = 0, 500
    while pred[node] >= 0:
        hops, node = hops + 1, pred[node]
    assert hops == 401 > 2**8
    assert_matches_oracle(precomputation)
    record = record_of(precomputation, 99)
    assert record.cross_nodes == set(range(99, 501))
    assert record.traversed[5] == {0, 1, 2, 3, 4, 5}
    assert_refold_restores(precomputation, np.arange(len(precomputation.block.dist)))


def test_fold_marks_a_target_on_another_targets_path_once():
    """From border node 1, targets 2 and 3 lie on the path to target 4, and
    target 5 branches off at 2: each path's regions are its own."""
    precomputation = precomputation_over(
        two_way([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]), [0, 0, 1, 1, 2, 3]
    )
    assert_matches_oracle(precomputation)
    record = record_of(precomputation, 1)
    assert record.cross_nodes == {1, 2, 3, 4, 5}
    assert record.finite_pairs == 4
    assert record.traversed == {1: {0, 1}, 2: {0, 1, 2}, 3: {0, 1, 3}}
    assert record.min_to[1] == 1.0 and record.max_to[1] == 2.0


def test_fold_of_rows_without_a_finite_target():
    """Border node 1 only has in-edges, so its row reaches no border target;
    folded alone or beside a row that does, it keeps only its own node."""
    precomputation = precomputation_over([(0, 1, 1.0), (2, 1, 2.0)], [0, 1, 2])
    assert_matches_oracle(precomputation)
    block = precomputation.block
    row = precomputation._all_border.index((1, 1))
    assert np.flatnonzero(block.cross[row]).tolist() == [1]
    assert block.finite_pairs[row] == 0
    assert not block.reach[row].any()
    assert np.isinf(block.min_to[row]).all() and (block.max_to[row] == -np.inf).all()
    assert not block.traversed[row].any()
    assert_refold_restores(precomputation, [row])
    assert_refold_restores(precomputation, [0, row])


def test_fold_of_rows_sharing_no_cross_node():
    """Three two-node components across regions 0 and 1: the rows of the
    region-0 border nodes have disjoint cross-border sets and fold as one
    block."""
    precomputation = precomputation_over(two_way([(0, 1), (2, 3), (4, 5)]), [0, 1] * 3)
    assert_matches_oracle(precomputation)
    rows = [precomputation._all_border.index((node, 0)) for node in (0, 2, 4)]
    cross = precomputation.block.cross[rows]
    assert cross.sum(axis=0).max() == 1
    assert [np.flatnonzero(row).tolist() for row in cross] == [[0, 1], [2, 3], [4, 5]]
    assert_refold_restores(precomputation, rows)
