"""The client searches on the kernel against their dict references.

ArcFlag searches its pinned weights with the edges unflagged for the
target's region weighed ``inf``, HiTi its compiled flat overlay with the
edges the query leaves out weighed ``inf`` -- both one compiled sweep
through ``KernelArena.point_to_point(weights=...)`` -- and Landmark runs A*
with a vectorized potential (``potential=``).  Each answer -- distance,
path and settled count -- must equal the dict loop it replaced:
``tests/oracles/astar.py`` with an edge filter or a scalar lower bound, and
the per-query dict overlay of ``tests/oracles/hiti.py``; a masked search's
``pred`` must follow the same path.
Networks are hypothesis-drawn with integer weights (exact ties), parallel
edges, a node with out-edges only and an isolated node;
ArcFlag runs at region counts on both sides of the 64-bit word boundary.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import arcflag as arcflag_oracle
from oracles import hiti as hiti_oracle
from oracles.astar import astar_search, landmark_lower_bound, landmark_vectors
from repro import air
from repro.index.arcflag import ArcFlagIndex
from repro.index.hiti import HiTiIndex
from repro.index.landmark import LandmarkIndex
from repro.network.algorithms.kernel import arena_for
from repro.network.graph import RoadNetwork
from repro.partitioning.base import Partitioning
from repro.serialize.codec import decode_value, encode_value

SETTINGS = settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow]
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
    """Random directed network with integer weights in ``[1, 4]`` and some
    parallel edges, plus a node with out-edges only and an isolated node
    (the last two ids).
    Nodes are added in shuffled order, so ``edges()`` order is not the
    snapshot's edge order."""
    rng = random.Random(seed)

    def weight() -> float:
        return float(rng.randint(1, 4))

    network = RoadNetwork(name=f"client-ties-{seed}")
    for node in rng.sample(range(num_nodes), num_nodes):
        network.add_node(node, float(node), rng.random())
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
    for a, b in rng.sample(sorted(edges), max(1, len(edges) // 8)):
        network.add_edge(a, b, weight())  # a parallel edge
    network.clear_delta()
    return network


def tie_partitioning(network: RoadNetwork, num_regions: int, seed: int) -> Partitioning:
    """Random regions, with the highest region and (past one word) region
    63 always populated, so flags use the top bit of each word."""
    rng = random.Random(seed)
    regions = [rng.randrange(num_regions) for _ in range(network.num_nodes)]
    regions[0] = num_regions - 1
    if num_regions > 64:
        regions[1] = 63
    return Partitioning(network, _Assigned(num_regions, regions))


def query_pairs(network: RoadNetwork, seed: int, count: int = 30):
    """Random pairs plus every pair touching the top-region nodes and the
    two nodes nothing reaches."""
    rng = random.Random(seed)
    ids = sorted(network.node_ids())
    special = [0, 1, ids[-2], ids[-1]]
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(count)]
    pairs += [(a, b) for a in special for b in special]
    pairs += [(rng.choice(ids), b) for b in special] + [(a, rng.choice(ids)) for a in special]
    return pairs


def answer(result):
    return result.distance, result.path, result.settled


def reweight(network: RoadNetwork, seed: int, count: int = 4):
    """Apply ``count`` random positive integer weight changes."""
    rng = random.Random(seed)
    edges = sorted({(source, target) for source, target, _ in network.edge_tuples()})
    network.apply_updates(
        [(u, v, float(rng.randint(1, 6))) for u, v in rng.sample(edges, min(count, len(edges)))]
    )


# ----------------------------------------------------------------------
# The kernel's potential loop against the reference A*
# ----------------------------------------------------------------------
@SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(6, 30),
)
def test_potential_search_equals_astar_for_any_bound(seed, num_nodes):
    """Arbitrary non-negative potentials -- inconsistent ones too, which
    can lower a settled node's label -- settle exactly like the settled-set
    A* they replace."""
    network = tie_network(seed, num_nodes)
    rng = random.Random(seed)
    potential = [float(rng.randint(0, 6)) for _ in range(num_nodes)]
    arena = arena_for(network.ensure_csr())
    for source, target in query_pairs(network, seed):
        want = astar_search(
            network, source, target, lower_bound=lambda node, _: potential[node]
        )
        got = arena.point_to_point(source, target, potential=potential)
        assert answer(got.path_result(target)) == answer(want)


@SETTINGS
@given(seed=st.integers(0, 10_000), num_nodes=st.integers(6, 30))
def test_weights_search_equals_filtered_astar(seed, num_nodes):
    """A search over its own weights, ``inf`` on the dropped edges, settles
    like the edge-filtered reference, and its ``pred`` -- derived over the
    same weights -- never picks a dropped edge on a tie."""
    network = tie_network(seed, num_nodes)
    csr = network.ensure_csr()
    rng = random.Random(seed)
    dropped = {
        pair
        for pair in sorted({(u, v) for u, v, _ in network.edge_tuples()})
        if rng.random() < 0.3
    }
    ids = csr.ids
    weights = np.array(
        [
            np.inf if (ids[tail], ids[csr.fwd_targets[position]]) in dropped
            else csr.fwd_weights[position]
            for tail in range(csr.num_nodes)
            for position in range(csr.fwd_offsets[tail], csr.fwd_offsets[tail + 1])
        ]
    )
    arena = arena_for(csr)
    for source, target in query_pairs(network, seed):
        want = astar_search(
            network, source, target, edge_filter=lambda u, v: (u, v) not in dropped
        )
        got = arena.point_to_point(source, target, weights=weights)
        assert answer(got.path_result(target)) == answer(want)
        assert pred_path(got, target) == want.path


def pred_path(result, target):
    """The node-id path read off ``result.pred`` (empty when unreached)."""
    index = result.csr.index_of[target]
    if not np.isfinite(result.dist_np[index]):
        return []
    path = [index]
    while path[-1] != result.source_index:
        path.append(result.pred[path[-1]])
    return [result.csr.ids[i] for i in reversed(path)]


# ----------------------------------------------------------------------
# ArcFlag: flagged edges against the edge-filtered reference
# ----------------------------------------------------------------------
@SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_regions=st.sampled_from([4, 64, 65, 128]),
    num_nodes=st.integers(6, 30),
)
def test_arcflag_query_equals_filtered_astar(seed, num_regions, num_nodes):
    network = tie_network(seed, num_nodes)
    partitioning = tie_partitioning(network, num_regions, seed)
    index = ArcFlagIndex(network, partitioning)
    flags = arcflag_oracle.build_flags(network, partitioning)
    assert list(index.flags.items()) == list(flags.items())
    restored = ArcFlagIndex.from_state(
        network, partitioning, decode_value(encode_value(index.state()))
    )
    assert restored.edge_flags == index.edge_flags
    for source, target in query_pairs(network, seed):
        bit = 1 << partitioning.region_of(target)
        want = astar_search(
            network, source, target, edge_filter=lambda u, v: bool(flags[(u, v)] & bit)
        )
        assert answer(index.query(source, target)) == answer(want)
        assert answer(restored.query(source, target)) == answer(want)


# ----------------------------------------------------------------------
# Landmark: vectorized potentials against the scalar bound
# ----------------------------------------------------------------------
@SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_nodes=st.integers(6, 30),
    num_landmarks=st.integers(1, 4),
)
def test_landmark_query_equals_scalar_astar(seed, num_nodes, num_landmarks):
    network = tie_network(seed, num_nodes)
    ids = sorted(network.node_ids())  # snapshot index order
    rng = random.Random(seed)
    # The isolated node and the out-edges-only node leave ``inf`` entries
    # in every other landmark's vectors; draw them as landmarks too.
    landmarks = rng.sample(ids, num_landmarks - 1) + [rng.choice(ids[-2:])]
    index = LandmarkIndex(network, landmarks=landmarks)
    forward, backward = landmark_vectors(network, landmarks)
    state = index.state()
    for key, vectors in (("forward", forward), ("backward", backward)):
        # The state's float64 block: landmark rows, snapshot-index columns.
        decoded = np.frombuffer(state[key], dtype="<f8").reshape(len(landmarks), len(ids))
        want = [[vectors[landmark].get(node, np.inf) for node in ids] for landmark in landmarks]
        assert np.array_equal(decoded, np.array(want))
    assert np.isinf(index.forward).any() and np.isinf(index.backward).any()
    lower_bound = landmark_lower_bound(landmarks, forward, backward)
    for target in ids:
        potentials = index.potentials(target)
        assert potentials == [lower_bound(node, target) for node in ids]
    restored = LandmarkIndex.from_state(network, decode_value(encode_value(state)))
    assert np.array_equal(restored.forward, index.forward)
    assert np.array_equal(restored.backward, index.backward)
    for source, target in query_pairs(network, seed):
        want = astar_search(network, source, target, lower_bound=lower_bound)
        assert answer(index.query(source, target)) == answer(want)
        assert answer(restored.query(source, target)) == answer(want)


# ----------------------------------------------------------------------
# HiTi: the compiled overlay against the per-query dict overlay
# ----------------------------------------------------------------------
def assert_hiti_matches(index: HiTiIndex, pairs) -> None:
    for source, target in pairs:
        assert answer(index.query(source, target)) == answer(
            hiti_oracle.query(index, source, target)
        )


@SETTINGS
@given(
    seed=st.integers(0, 10_000),
    num_regions=st.sampled_from([2, 4, 8]),
    num_nodes=st.integers(6, 30),
)
def test_hiti_query_equals_dict_overlay(seed, num_regions, num_nodes):
    network = tie_network(seed, num_nodes)
    partitioning = tie_partitioning(network, num_regions, seed)
    pairs = query_pairs(network, seed)
    index = HiTiIndex(network, partitioning)
    assert_hiti_matches(index, pairs)
    crossing = sum(
        1
        for source, target, _ in network.edge_tuples()
        if partitioning.region_of(source) != partitioning.region_of(target)
    )
    assert index.num_crossing_edges() == crossing

    restored = HiTiIndex.from_state(
        network, partitioning, decode_value(encode_value(index.state()))
    )
    assert_hiti_matches(restored, pairs)

    # A weight batch refreshed in place: the overlay follows the network.
    reweight(network, seed)
    index.refresh(network.pending_delta().dirty_regions(partitioning))
    network.clear_delta()
    assert_hiti_matches(index, pairs)
    scratch = HiTiIndex(network, partitioning)
    assert index.state()["levels"] == scratch.state()["levels"]


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000), num_nodes=st.integers(10, 40))
def test_hiti_shadow_refresh_leaves_the_serving_overlay(seed, num_nodes):
    """``shadow_rebuild`` refreshes a replacement; the serving instance keeps
    its rows and answers, and the replacement equals a scratch build."""
    network = tie_network(seed, num_nodes)
    scheme = air.create("HiTi", network, num_regions=4)
    pairs = query_pairs(network, seed)
    serving = scheme.index
    assert_hiti_matches(serving, pairs)
    overlay = hiti_overlay(serving)
    before = [answer(serving.query(source, target)) for source, target in pairs]

    reweight(network, seed)
    delta = network.pending_delta()
    shadow = scheme.shadow_rebuild(network, delta)
    assert shadow is not None and shadow.index is not serving
    assert hiti_overlay(serving) == overlay
    assert [answer(serving.query(source, target)) for source, target in pairs] == before
    assert_hiti_matches(shadow.index, pairs)

    network.clear_delta()
    scratch = air.create("HiTi", network, num_regions=4)
    assert scratch.index.state()["levels"] == shadow.index.state()["levels"]


def hiti_overlay(index):
    """A HiTi index's compiled overlay as plain lists: both directions'
    offsets, heads and weights, and every edge's query code."""
    overlay = index.overlay
    arrays = (
        overlay.fwd_offsets,
        overlay.fwd_targets,
        overlay.fwd_weights,
        overlay.rev_offsets,
        overlay.rev_targets,
        overlay.rev_weights,
    )
    return [list(values) for values in arrays] + [index._code.tolist()]


def hiti_build_view(scheme):
    """A HiTi scheme's levels, compiled overlay and artifact payload, with
    the build timings zeroed (a refresh and a scratch build differ only
    there)."""
    index = scheme.index
    payload = decode_value(scheme.artifact().payload)
    payload["precomputation_seconds"] = 0.0
    payload["state"]["index"]["seconds"] = 0.0
    return index.state()["levels"], hiti_overlay(index), payload


def test_hiti_single_region_refreshes_equal_scratch_builds():
    """Ten one-region shadow refreshes in a row: each replacement equals a
    scratch build (levels, overlay, artifact payload), and the instance it
    replaced keeps its overlay."""
    network = tie_network(7, 120)
    scheme = air.create("HiTi", network, num_regions=8)
    region_of = scheme.partitioning.region_of
    internal = sorted(
        {
            (source, target)
            for source, target, _ in network.edge_tuples()
            if region_of(source) == region_of(target)
        }
    )
    rng = random.Random(7)
    for _ in range(10):
        source, target = rng.choice(internal)
        current = {w for u, v, w in network.edge_tuples() if (u, v) == (source, target)}
        weight = rng.choice([w for w in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0) if w not in current])
        network.apply_updates([(source, target, weight)])
        delta = network.pending_delta()
        assert len(delta.dirty_regions(scheme.partitioning)) == 1
        overlay = hiti_build_view(scheme)[1]
        shadow = scheme.shadow_rebuild(network, delta)
        assert shadow is not None
        assert hiti_build_view(scheme)[1] == overlay
        network.clear_delta()
        assert hiti_build_view(shadow) == hiti_build_view(
            air.create("HiTi", network, num_regions=8)
        )
        scheme = shadow


def test_in_place_patches_leave_serving_answers_until_a_replacement():
    """``apply_updates`` patches the shared snapshot in place: an ArcFlag
    index and a serving HiTi index keep answering over the weights they
    were built over, and only their replacements answer over the new."""
    network = tie_network(11, 60)
    partitioning = tie_partitioning(network, 4, 11)
    arcflag = ArcFlagIndex(network, partitioning)
    hiti = air.create("HiTi", network, num_regions=4)
    pairs = query_pairs(network, 11, count=60)
    before_af = [answer(arcflag.query(source, target)) for source, target in pairs]
    before_hiti = [answer(hiti.index.query(source, target)) for source, target in pairs]

    # Every edge ten times heavier: each reached distance moves.
    network.apply_updates([(u, v, 10.0 * w) for u, v, w in network.edge_tuples()])
    assert [answer(arcflag.query(source, target)) for source, target in pairs] == before_af
    assert [answer(hiti.index.query(source, target)) for source, target in pairs] == before_hiti

    replacement_af = ArcFlagIndex(network, partitioning)
    replacement_hiti = hiti.shadow_rebuild(network, network.pending_delta())
    assert [answer(replacement_af.query(s, t)) for s, t in pairs] != before_af
    assert [answer(replacement_hiti.index.query(s, t)) for s, t in pairs] != before_hiti
    flags = arcflag_oracle.build_flags(network, partitioning)
    for source, target in pairs:
        bit = 1 << partitioning.region_of(target)
        want = astar_search(
            network, source, target, edge_filter=lambda u, v: bool(flags[(u, v)] & bit)
        )
        assert answer(replacement_af.query(source, target)) == answer(want)
    assert_hiti_matches(replacement_hiti.index, pairs)
