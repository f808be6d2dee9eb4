"""Property suite for the CSR snapshot layer and the array SP kernel.

The contract under test (see ``docs/api.md``): every full sweep is
**bit-identical** to the dict Dijkstra oracle (``tests/oracles/dijkstra.py``):
same IEEE-754 distance values, same predecessor choices on equal-distance
ties, same settled counts, and the same ``distances``/``predecessors`` dict
insertion order.  A point-to-point search -- and therefore every
``shortest_path`` call -- equals the stopped oracle loop on its answer
(distance, path, settled count) and on every node the loop settled (label
and predecessor); on the faithful loop, tentative frontier labels and key
order match too.  That must hold on static networks, after random
weight-update streams (in-place snapshot patching), on both kernel paths --
the scipy sweep with its exact reconstruction, which every search over a
snapshot's own rows takes, and the faithful loop of multi-target searches --
and for the masked search that replaced the EB/NR clients' per-query
subgraphs.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import arcflag as arcflag_oracle
from oracles import border_paths as border_oracle
from oracles import dijkstra as oracle
from repro.engine import AirSystem
from repro.index.arcflag import ArcFlagIndex
from repro.network.algorithms import kernel
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.algorithms.paths import INFINITY
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.network.graph import RoadNetwork, build_network
from repro.partitioning.kdtree import build_kdtree_partitioning
from test_air_border_paths import integer_weight_network

SEEDS = [3, 11, 29]


@pytest.fixture(params=["accel"])
def kernel_path(request):
    """The kernel path a property drives: ``accel``, the scipy sweep and its
    reconstruction, which full sweeps and point-to-point searches over a
    snapshot's own rows always take (every weight is strictly positive).
    The network is used as built; the fixture returns the function that
    prepares it, and its parameter keeps the properties' test ids."""
    return lambda network: network


def make_network(seed: int, num_nodes: int = 90, num_edges: int = 230) -> RoadNetwork:
    network = generate_road_network(
        GeneratorConfig(num_nodes=num_nodes, num_edges=num_edges, seed=seed)
    )
    network.clear_delta()
    return network


def arena(network):
    return kernel.arena_for(network.ensure_csr())


def predecessors_of(network, source, dist_row, pred_row):
    """``{node_id: predecessor_id}`` over one many-to-many row's reached
    nodes, the source mapped to ``None`` -- the oracle's mapping."""
    ids = network.ensure_csr().ids
    return {
        ids[i]: None if ids[i] == source else ids[pred_row[i]]
        for i in np.flatnonzero(np.isfinite(dist_row)).tolist()
    }


def assert_same_result(kernel_result, reference_result):
    """Full bit-identity: values, tie choices, counts, and dict key order."""
    kernel_result = oracle.DijkstraResult(
        source=kernel_result.source,
        distances=kernel_result.distances_dict(),
        predecessors=kernel_result.predecessors_dict(),
        settled=kernel_result.settled,
    )
    assert kernel_result.distances == reference_result.distances
    assert list(kernel_result.distances) == list(reference_result.distances)
    assert kernel_result.predecessors == reference_result.predecessors
    assert list(kernel_result.predecessors) == list(reference_result.predecessors)
    assert kernel_result.settled == reference_result.settled


def assert_settled_scope(got, want):
    """A point-to-point result against the stopped oracle loop ``want``.

    The settled count, and on every node the loop settled the label, the
    predecessor and the path, are the loop's; a node the loop only
    discovered (the frontier) carries a converged label no greater than the
    loop's tentative one.  A result off the faithful loop (no ``dist_np``)
    must match in full, tentative labels and key order included.
    """
    if got.dist_np is None:
        assert_same_result(got, want)
        return
    assert got.settled == want.settled
    index_of = got.csr.index_of
    pred = got.pred
    for node in want.settled_nodes:
        assert got.distance_to(node) == want.distances[node]
        parent = want.predecessors[node]
        assert pred[index_of[node]] == (-1 if parent is None else index_of[parent])
        assert got.path_to(node) == want.path_to(node)
    for node, label in want.distances.items():
        assert got.distance_to(node) <= label


# ----------------------------------------------------------------------
# Dispatch bit-identity on static networks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_sssp_bit_identical_forward_and_reverse(seed, kernel_path):
    network = kernel_path(make_network(seed))
    network.ensure_csr()
    rng = random.Random(seed)
    for source in rng.sample(network.node_ids(), 12):
        for reverse in (False, True):
            assert_same_result(
                arena(network).sssp(source, reverse=reverse),
                oracle.dijkstra_distances(network, source, reverse=reverse),
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_point_to_point_bit_identical_including_frontier(seed, kernel_path):
    """Early termination leaves tentative frontier labels behind: the
    faithful loop matches them, a compiled search keeps converged labels no
    greater than them; settled nodes match on both paths, forward and
    reverse (see ``assert_settled_scope``)."""
    network = kernel_path(make_network(seed))
    network.ensure_csr()
    rng = random.Random(seed + 1)
    ids = network.node_ids()
    for step in range(15):
        source, target = rng.choice(ids), rng.choice(ids)
        reverse = bool(step % 2)
        assert_settled_scope(
            arena(network).search(source, target=target, reverse=reverse),
            oracle.dijkstra_search(network, source, target=target, reverse=reverse),
        )
        got = shortest_path(network, source, target)
        want = oracle.shortest_path(network, source, target)
        assert (got.distance, got.path, got.settled) == (
            want.distance,
            want.path,
            want.settled,
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_multi_target_bit_identical(seed, kernel_path):
    network = kernel_path(make_network(seed))
    network.ensure_csr()
    rng = random.Random(seed + 2)
    ids = network.node_ids()
    for size in (0, 1, 4, 9):
        source = rng.choice(ids)
        targets = rng.sample(ids, size)
        assert_same_result(
            arena(network).multi_target(source, targets),
            oracle.dijkstra_multi_target(network, source, targets),
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_combined_target_and_targets_bit_identical(seed, kernel_path):
    """`target` and `targets` together terminate exactly like the dict loop."""
    network = kernel_path(make_network(seed, num_nodes=60, num_edges=150))
    network.ensure_csr()
    rng = random.Random(seed + 7)
    ids = network.node_ids()
    for _ in range(10):
        source, target = rng.choice(ids), rng.choice(ids)
        targets = set(rng.sample(ids, rng.randint(1, 5)))
        assert_same_result(
            arena(network).search(source, target=target, targets=targets),
            oracle.dijkstra_search(network, source, target=target, targets=targets),
        )
    # Unknown target alongside live targets: only the targets terminate.
    source = ids[0]
    assert_same_result(
        arena(network).search(source, target=10**9, targets={ids[-1]}),
        oracle.dijkstra_search(network, source, target=10**9, targets={ids[-1]}),
    )


def test_unknown_target_degenerates_to_full_sweep(kernel_path):
    network = kernel_path(make_network(7))
    network.ensure_csr()
    source = network.node_ids()[0]
    assert_same_result(
        arena(network).search(source, target=10**9),
        oracle.dijkstra_search(network, source, target=10**9),
    )


def test_snapshot_searches_never_enter_the_faithful_loop(monkeypatch):
    """Full sweeps, point-to-point searches (plain, masked and through
    ``search``) and batched sweeps over a snapshot's own rows take the
    compiled sweep alone, and NR/EB publish ``dist`` labels only."""
    from repro import air

    def refuse(*args, **kwargs):
        raise AssertionError("a snapshot search entered the faithful loop")

    network = integer_weight_network(5, num_nodes=60)
    monkeypatch.setattr(kernel.KernelArena, "_faithful", refuse)
    ids = network.node_ids()
    for reverse in (False, True):
        arena(network).sssp(ids[0], reverse=reverse).pred
        arena(network).point_to_point(ids[0], ids[-2], reverse=reverse).pred
        arena(network).point_to_point(
            ids[0], ids[-2], allowed=ids[::2] + [ids[-2]], reverse=reverse
        ).pred
        arena(network).search(ids[0], target=ids[-2], reverse=reverse).pred
        dist = np.empty((len(ids), len(ids)))
        pred = np.empty(dist.shape, dtype=np.int64)
        arena(network).many_to_many(ids, dist, pred, reverse=reverse)
    for name in ("NR", "EB"):
        scheme = air.create(name, network, num_regions=4)
        assert set(scheme.precomputation.state()["labels"]) == {"dist"}


def test_parallel_edges_stay_exact(kernel_path):
    network = build_network(
        nodes=[(i, float(i), 0.0) for i in range(4)],
        edges=[
            (0, 1, 5.0),
            (0, 1, 2.0),  # parallel, cheaper: shortest paths must use it
            (0, 1, 2.0),  # parallel duplicate weight
            (1, 2, 1.0),
            (0, 2, 9.0),
            (2, 3, 1.0),
        ],
    )
    kernel_path(network)
    network.ensure_csr()
    for source in network.node_ids():
        assert_same_result(
            arena(network).sssp(source),
            oracle.dijkstra_distances(network, source),
        )


# ----------------------------------------------------------------------
# Masked search (the EB/NR client path)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_masked_search_equals_subgraph_search(seed, kernel_path):
    network = kernel_path(make_network(seed, num_nodes=70, num_edges=180))
    network.ensure_csr()
    rng = random.Random(seed + 3)
    ids = network.node_ids()
    for _ in range(12):
        allowed = set(rng.sample(ids, rng.randint(2, len(ids))))
        inside = sorted(allowed)
        source, target = rng.choice(inside), rng.choice(inside)
        got = shortest_path(network, source, target, allowed=allowed)
        want = oracle.shortest_path(network.subgraph(allowed), source, target)
        assert (got.distance, got.path, got.settled) == (
            want.distance,
            want.path,
            want.settled,
        )


def test_masked_search_requires_endpoints_inside_the_mask():
    network = make_network(5, num_nodes=30, num_edges=70)
    arena = kernel.arena_for(network.ensure_csr())
    ids = network.node_ids()
    allowed = set(ids[:10])
    outside = next(node for node in ids if node not in allowed)
    with pytest.raises(KeyError):
        arena.point_to_point(outside, ids[0], allowed=allowed)
    with pytest.raises(KeyError):
        arena.point_to_point(ids[0], outside, allowed=allowed)


def tight_in_edges(network, distances, node, reverse, allowed):
    """Tails ``u`` inside ``allowed`` whose edge achieves ``node``'s label."""
    adjacency = network.adjacency() if reverse else network.reverse_adjacency()
    return {
        tail
        for tail, weight in adjacency[node]
        if tail in allowed and distances.get(tail, INFINITY) + weight == distances[node]
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("reverse", [False, True])
def test_masked_search_bit_identical_to_oracle(seed, reverse, kernel_path):
    """Masked point-to-point equals the dict loop restricted to ``allowed``
    on every settled node (see ``assert_settled_scope``).

    ``path_to`` on every settled node equals the oracle's path twice: read
    first off the converged labels alone (the walk-back derives no tree)
    and then again after ``pred`` has been read.  Integer weights make
    equal-distance ties, and the test asserts one was decided.
    """
    network = kernel_path(integer_weight_network(seed, num_nodes=60))
    arena = kernel.arena_for(network.ensure_csr())
    rng = random.Random(seed * 7 + reverse)
    ids = network.node_ids()
    ties = 0
    for _ in range(25):
        allowed = set(rng.sample(ids, rng.randint(2, len(ids))))
        source, target = rng.sample(sorted(allowed), 2)
        want = oracle.dijkstra_search(
            network, source, target=target, reverse=reverse, allowed=allowed
        )
        got = arena.point_to_point(source, target, allowed=allowed, reverse=reverse)
        assert got.settled == want.settled
        settled = sorted(want.settled_nodes)
        for node in settled:
            assert got.path_to(node) == want.path_to(node)
            if node != source and len(
                tight_in_edges(network, want.distances, node, reverse, allowed)
            ) > 1:
                ties += 1
        assert got._pred is None, "a path must not derive the tree"
        assert_settled_scope(got, want)
        for node in settled:
            assert got.path_to(node) == want.path_to(node)
    assert ties > 0


def test_searches_after_structural_mutation_compile_one_snapshot():
    """A structural edit is staged until the next read: the masked search
    compiles exactly one snapshot (no subgraph fallback) and, like
    ``shortest_path`` after it, answers as the oracle does."""
    network = make_network(6, num_nodes=40, num_edges=100)
    network.ensure_csr()
    ids = network.node_ids()
    builds = network.csr_stats()["builds"]
    network.add_edge(ids[0], ids[-1], 0.75)
    rng = random.Random(6)
    allowed = set(rng.sample(ids, 25)) | {ids[0], ids[-1]}
    for source, target in ((ids[0], ids[-1]), (ids[-1], ids[0])):
        got = shortest_path(network, source, target, allowed=allowed)
        want = oracle.shortest_path(network.subgraph(allowed), source, target)
        assert (got.distance, got.path, got.settled) == (
            want.distance,
            want.path,
            want.settled,
        )
        got = shortest_path(network, source, target)
        want = oracle.shortest_path(network, source, target)
        assert (got.distance, got.path, got.settled) == (
            want.distance,
            want.path,
            want.settled,
        )
    assert network.csr_stats()["builds"] == builds + 1


# ----------------------------------------------------------------------
# Dynamic updates: in-place snapshot patching
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_patched_snapshot_bit_identical_after_update_stream(seed, kernel_path):
    network = kernel_path(make_network(seed))
    network.ensure_csr()
    rng = random.Random(seed + 4)
    edges = list(network.edges())
    for _ in range(4):  # four batches, snapshot patched through all of them
        for _ in range(8):
            edge = rng.choice(edges)
            factor = rng.uniform(0.4, 2.5)
            try:
                network.update_edge_weight(
                    edge.source, edge.target, max(1e-3, edge.weight * factor)
                )
            except KeyError:
                continue
        stats = network.csr_stats()
        assert stats["builds"] == 1
        for source in rng.sample(network.node_ids(), 6):
            assert_same_result(
                arena(network).sssp(source),
                oracle.dijkstra_distances(network, source),
            )
            assert_same_result(
                arena(network).sssp(source, reverse=True),
                oracle.dijkstra_distances(network, source, reverse=True),
            )
    assert network.csr_stats()["patches"] > 0


def test_structural_mutation_invalidates_and_rebuild_recovers():
    network = make_network(9, num_nodes=40, num_edges=100)
    first = network.ensure_csr()
    ids = network.node_ids()
    network.add_edge(ids[0], ids[-1], 0.25)
    assert network.csr_stats()["builds"] == 1
    second = network.ensure_csr()
    assert second is not first
    assert second.num_edges == first.num_edges + 1
    assert_same_result(
        arena(network).sssp(ids[0]), oracle.dijkstra_distances(network, ids[0])
    )
    assert network.csr_stats()["builds"] == 2


def test_noop_weight_update_does_not_patch():
    network = make_network(10, num_nodes=20, num_edges=50)
    network.ensure_csr()
    edge = next(network.edges())
    network.update_edge_weight(edge.source, edge.target, edge.weight)
    assert network.csr_stats()["patches"] == 0


def test_patch_weight_rejects_unknown_entries():
    snapshot = make_network(11, num_nodes=12, num_edges=30).ensure_csr()
    with pytest.raises(KeyError):
        snapshot.patch_weight(snapshot.ids[0], snapshot.ids[1], -123.0, 1.0)


def test_patch_leaves_rows_unbuilt_and_landmark_queries_exact():
    from repro.index.landmark import LandmarkIndex

    network = make_network(12, num_nodes=60, num_edges=160)
    snapshot = network.ensure_csr()
    ids = snapshot.ids
    # A* runs the faithful loop, which builds the forward rows.
    LandmarkIndex(network, num_landmarks=3).query(ids[0], ids[-1])
    assert snapshot._fwd_adj is not None and snapshot.rev_adj is not None
    for edge in list(network.edges())[:4]:
        network.update_edge_weight(edge.source, edge.target, edge.weight * 3.0)
    assert network.ensure_csr() is snapshot
    assert snapshot._fwd_adj is None and snapshot._rev_adj is None

    fresh = network.copy()
    assert fresh.ensure_csr() is not snapshot
    patched_index = LandmarkIndex(network, num_landmarks=3)
    fresh_index = LandmarkIndex(fresh, num_landmarks=3)
    rng = random.Random(12)
    for _ in range(20):
        source, target = rng.choice(ids), rng.choice(ids)
        patched = patched_index.query(source, target)
        compiled = fresh_index.query(source, target)
        assert (patched.distance, patched.path) == (compiled.distance, compiled.path)


# ----------------------------------------------------------------------
# CSR compilation details
# ----------------------------------------------------------------------
def test_multi_target_from_an_isolated_source():
    network = RoadNetwork()
    for node_id in (1, 2, 7):
        network.add_node(node_id, 0.0, 0.0)
    network.add_edge(1, 2, 1.0)
    arena = kernel.KernelArena(network.ensure_csr())
    isolated = arena.multi_target(7, {1, 2})
    assert isolated.distance_to(1) == INFINITY
    assert arena.multi_target(1, {2}).distance_to(2) == 1.0


def test_snapshot_index_order_is_id_order():
    network = RoadNetwork()
    for node_id in (44, 2, 17):  # deliberately unsorted insertion
        network.add_node(node_id, 0.0, 0.0)
    network.add_edge(44, 2, 1.0)
    snapshot = network.ensure_csr()
    assert snapshot.ids == [2, 17, 44]
    assert snapshot.size_bytes() > 0
    assert snapshot.fwd_adj[snapshot.index_of[44]] == ((0, 1.0),)


def test_kernel_result_api_edges():
    network = make_network(12, num_nodes=25, num_edges=60)
    arena = kernel.arena_for(network.ensure_csr())
    source = network.node_ids()[0]
    distance_only = arena.sssp(source, need_predecessors=False)
    assert distance_only.distance_to(10**9) == INFINITY
    assert set(distance_only.distances_dict()) == set(
        arena.sssp(source).distances_dict()
    )
    with pytest.raises(ValueError):
        distance_only.predecessors_dict()
    with pytest.raises(ValueError):
        distance_only.path_to(source)
    full = arena.sssp(source)
    assert full.path_to(source) == [source]
    assert full.path_to(10**9) == []
    with pytest.raises(KeyError):
        arena.sssp(10**9)


@pytest.mark.parametrize("seed", SEEDS)
def test_p2p_reconstruction_is_deferred_and_probe_is_exact(seed):
    """The compiled p2p result derives its tree only when ``pred`` is read,
    and its distance probes are exact.

    ``point_to_point`` answers ``distance_to``, ``path_to`` and the settled
    count straight off the sweep's labels; ``pred`` (one
    ``KernelArena._tree_rows`` pass) must not run until a consumer reads
    it, and then equal the oracle's on every settled node.
    """
    network = make_network(seed)
    arena = kernel.arena_for(network.ensure_csr())
    rng = random.Random(seed + 5)
    ids = network.node_ids()
    for _ in range(10):
        source, target = rng.choice(ids), rng.choice(ids)
        want = oracle.dijkstra_search(network, source, target=target)
        got = arena.point_to_point(source, target)
        assert got.distance_to(target) == want.distance_to(target)
        assert got.path_to(target) == want.path_to(target)
        assert got.settled == want.settled
        assert got._pred is None, "answering the query must not derive the tree"
        assert_settled_scope(got, want)
        assert got._pred is not None
        for probe_node in want.settled_nodes:
            assert got.distance_to(probe_node) == want.distance_to(probe_node)


def test_p2p_probe_matches_reference_labels_without_materialization(kernel_path):
    """Fresh results answer probes without deriving a tree.

    A settled node's label is the oracle's; any other node's is the
    converged one, no greater than the oracle's tentative label (or its
    ``inf``).
    """
    network = kernel_path(make_network(17, num_nodes=70, num_edges=180))
    arena = kernel.arena_for(network.ensure_csr())
    rng = random.Random(99)
    ids = network.node_ids()
    for _ in range(8):
        source, target = rng.choice(ids), rng.choice(ids)
        want = oracle.dijkstra_search(network, source, target=target)
        for probe_node in rng.sample(ids, 4) + [target]:
            fresh = arena.point_to_point(source, target)
            label = fresh.distance_to(probe_node)
            if probe_node in want.settled_nodes:
                assert label == want.distance_to(probe_node)
            else:
                assert label <= want.distance_to(probe_node)
                assert fresh._pred is None


def test_arena_is_cached_per_thread_and_snapshot():
    network = make_network(13, num_nodes=20, num_edges=50)
    snapshot = network.ensure_csr()
    assert kernel.arena_for(snapshot) is kernel.arena_for(snapshot)


def test_distance_only_sweep_matches_reference(kernel_path):
    """Distance-only sweeps take scipy: same labels and settled count, no
    tree."""
    network = kernel_path(make_network(15, num_nodes=50, num_edges=130))
    arena = kernel.arena_for(network.ensure_csr())
    for source in network.node_ids()[:6]:
        for reverse in (False, True):
            sweep = arena.sssp(source, need_predecessors=False, reverse=reverse)
            want = oracle.dijkstra_distances(network, source, reverse=reverse)
            assert sweep.distances_dict() == want.distances
            assert sweep.settled == want.settled
            assert sweep.pred is None and sweep.order is None


def test_network_level_convenience_functions(kernel_path):
    network = kernel_path(make_network(16, num_nodes=40, num_edges=100))
    source, target = network.node_ids()[0], network.node_ids()[-1]
    assert (
        arena(network).sssp(source).distances_dict()
        == oracle.dijkstra_distances(network, source).distances
    )
    assert arena(network).point_to_point(source, target).distance_to(
        target
    ) == oracle.shortest_path(network, source, target).distance
    dist = np.empty((1, network.num_nodes))
    pred = np.empty(dist.shape, dtype=np.int64)
    arena(network).many_to_many([source], dist, pred)
    assert len(pred) == 1
    assert (
        predecessors_of(network, source, dist[0], pred[0])
        == oracle.dijkstra_distances(network, source).predecessors
    )
    with pytest.raises(KeyError):
        kernel.arena_for(network.ensure_csr()).point_to_point(source, 10**9)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_many_to_many_rows_equal_the_oracle_source_by_source(seed, kernel_path):
    """Every distance and predecessor row equals one oracle sweep from its
    source, bit for bit.  Integer weights make equal-distance ties, so the
    rows' tie-broken predecessors are checked; the batch crosses a
    ``_BATCH_CHUNK`` boundary and includes nodes no other node reaches.  A
    reverse distance-only batch is checked too."""
    network = kernel_path(integer_weight_network(seed, num_nodes=80))
    sources = network.node_ids()
    assert len(sources) > kernel._BATCH_CHUNK
    ids = network.ensure_csr().ids
    index_of = {node: i for i, node in enumerate(ids)}
    shape = (len(sources), len(ids))
    dist = np.empty(shape)
    pred = np.empty(shape, dtype=np.int64)
    arena(network).many_to_many(sources, dist, pred)
    backward = np.empty(shape)
    arena(network).many_to_many(sources, backward, None, reverse=True)
    ties = 0
    for row, source in enumerate(sources):
        want = oracle.dijkstra_distances(network, source)
        labels = [want.distances.get(node, INFINITY) for node in ids]
        assert dist[row].tobytes() == np.array(labels).tobytes()
        parents = [want.predecessors.get(node) for node in ids]
        assert pred[row].tolist() == [
            -1 if parent is None else index_of[parent] for parent in parents
        ]
        back = oracle.dijkstra_distances(network, source, reverse=True)
        labels = [back.distances.get(node, INFINITY) for node in ids]
        assert backward[row].tobytes() == np.array(labels).tobytes()
        achieving = [
            v
            for u, v, w in network.edge_tuples()
            if u in want.distances and want.distances[u] + w == want.distances[v]
        ]
        ties += len(achieving) - len(set(achieving))
    assert ties, "integer weights must make equal-distance ties"


def tie_gadget_network(seed: int, num_nodes: int) -> RoadNetwork:
    """Random directed network with integer weights in ``[1, 4]`` and
    parallel edges, plus two tie gadgets and an isolated node.

    Nodes ``0..3`` form a diamond (``0 -> 1 -> 3``, ``0 -> 2 -> 3``, unit
    weights): node 3 forward from 0, and node 0 backward from 3, has two
    achieving in-edges from equally distant tails.  Nodes ``0, 4, 5, 6``
    tie at unequal tail distances: ``0 -> 5 -> 6`` costs ``1 + 3``, ``0 ->
    4 -> 6`` costs ``3 + 1``, so node 6's predecessor is the nearer tail
    5, not the lower index 4.  The last node has no edge at all.  Random
    edges never end at gadget nodes 1-6, so no shortcut breaks a tie.
    """
    rng = random.Random(seed)
    network = RoadNetwork(name=f"ties-{seed}")
    total = num_nodes + 8
    for node in range(total):
        network.add_node(node, float(node), 0.0)
    gadget = [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (0, 5, 1), (5, 6, 3), (0, 4, 3), (4, 6, 1)]
    for u, v, w in gadget:
        network.add_edge(u, v, float(w))
    heads = [0] + list(range(7, total - 1))
    for _ in range(3 * num_nodes):
        u, v = rng.randrange(total - 1), rng.choice(heads)
        if u != v:
            network.add_edge(u, v, float(rng.randint(1, 4)))
    network.clear_delta()
    return network


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10**6),
    num_nodes=st.integers(0, 40),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=90),
    reverse=st.booleans(),
)
def test_many_to_many_predecessor_pass_equals_the_faithful_loop(
    seed, num_nodes, picks, reverse
):
    """``many_to_many``'s distance and predecessor rows equal the faithful
    loop's, source by source, forward and reverse, on integer weights.

    The sources repeat (duplicates, including the tie gadgets' apexes),
    and the first full predecessor pass holds only the isolated node, so
    a whole pass reaches nothing; batches beyond ``_TREE_CHUNK`` and
    ``_BATCH_CHUNK`` rows cross pass and sweep boundaries.  Every example
    holds a head whose achieving in-edges come from distinct tails, so the
    tie branch runs each time.
    """
    network = tie_gadget_network(seed, num_nodes)
    csr = network.ensure_csr()
    ids = network.node_ids()
    apex = 3 if reverse else 0
    sources = [ids[-1]] * kernel._TREE_CHUNK + [apex, apex] + [
        ids[pick % len(ids)] for pick in picks
    ]
    shape = (len(sources), csr.num_nodes)
    dist = np.empty(shape)
    pred = np.full(shape, 7, dtype=np.int64)
    arena(network).many_to_many(sources, dist, pred, reverse=reverse)

    e_src, e_dst, e_w, _ = arena(network)._accel().edges(csr, reverse)
    tied_heads = 0
    for row, source in enumerate(sources):
        want = arena(network)._faithful(csr.index_of[source], source, reverse=reverse)
        assert dist[row].tobytes() == np.array(want.dist).tobytes()
        assert pred[row].tolist() == want.pred
        labels = dist[row]
        achieving = np.isfinite(labels[e_dst]) & (labels[e_src] + e_w == labels[e_dst])
        pairs = set(zip(e_dst[achieving].tolist(), e_src[achieving].tolist()))
        heads = [head for head, _ in pairs]
        tied_heads += len(heads) - len(set(heads))
    assert all(row == -1 for row in pred[: kernel._TREE_CHUNK].ravel().tolist())
    assert tied_heads, "the tie gadgets must give some head two achieving tails"


def test_kernel_handles_edgeless_network(kernel_path):
    """No edges at all: a sweep settles the source alone."""
    network = RoadNetwork()
    for node_id in range(3):
        network.add_node(node_id, float(node_id), 0.0)
    network.clear_delta()
    kernel_path(network)
    sweep = arena(network).sssp(0)
    assert sweep.distances_dict() == {0: 0.0}
    assert sweep.settled == 1
    assert arena(network).point_to_point(0, 2).distance_to(2) == INFINITY


def test_path_to_guards_against_broken_chains():
    network = RoadNetwork()
    for node_id in range(3):
        network.add_node(node_id, 0.0, 0.0)
    network.add_edge(0, 1, 1.0)
    network.add_edge(1, 2, 1.0)
    snapshot = network.ensure_csr()
    broken = kernel.KernelResult(
        snapshot, 0, dist=[0.0, 1.0, 2.0], pred=[-1, -1, 1], order=[0, 1, 2], settled=3
    )
    assert broken.path_to(1) == []  # discovered but its chain never reaches 0
    assert broken.path_to(0) == [0]


# ----------------------------------------------------------------------
# Precomputations built on the kernel equal their oracles
# ----------------------------------------------------------------------
def precomputation_inputs(seed):
    """A generated network and an integer-weight one (exact ties), each
    with its partitioning."""
    for network in (
        make_network(seed, num_nodes=60, num_edges=150),
        integer_weight_network(seed, num_nodes=60),
    ):
        yield network, build_kdtree_partitioning(network, 4)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_arcflag_vectorized_equals_reference_flags(seed):
    """Flags, values and key order equal ``oracles.arcflag``."""
    for network, partitioning in precomputation_inputs(seed):
        flags = ArcFlagIndex(network, partitioning).flags
        want = arcflag_oracle.build_flags(network, partitioning)
        assert flags == want
        assert list(flags) == list(want)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_border_precomputation_identical_across_kernel_modes(seed):
    """The published aggregates equal the ones derived from one oracle
    Dijkstra per border source."""
    from repro.air.border_paths import BorderPathPrecomputation

    for network, partitioning in precomputation_inputs(seed):
        built = BorderPathPrecomputation(network, partitioning)
        want = border_oracle.aggregates(network, partitioning)
        assert built.min_distance == want["min_distance"]
        assert built.max_distance == want["max_distance"]
        assert built.cross_border_nodes == want["cross_border_nodes"]
        assert built.traversed_regions == want["traversed_regions"]
        assert built.num_border_pairs == want["num_border_pairs"]


# ----------------------------------------------------------------------
# Engine surface
# ----------------------------------------------------------------------
def test_cache_info_reports_snapshot_stats():
    network = make_network(14, num_nodes=40, num_edges=100)
    system = AirSystem(network)
    system.scheme("DJ")
    info = system.cache_info()
    assert info.snapshot_builds == 1
    assert info.snapshot_patches == 0
    edge = next(network.edges())
    system.apply_updates([(edge.source, edge.target, edge.weight + 1.0)])
    info = system.cache_info()
    assert info.snapshot_patches == 1
    assert info.snapshot_builds == 1
    network.add_node(10**6, 0.0, 0.0)
    assert network.ensure_csr().num_nodes == network.num_nodes
    assert system.cache_info().snapshot_builds == 2


# ----------------------------------------------------------------------
# Per-thread arena lifetime across snapshot patches and supersession
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS[:2])
def test_stale_arena_cannot_resurrect_superseded_snapshot(kernel_path, seed):
    """A patched-then-superseded snapshot never serves through a stale arena.

    Sequence: build a snapshot, search through its per-thread arena, patch
    it in place via ``apply_updates`` (same snapshot object, new weights),
    then mutate structurally so the snapshot is superseded outright.  At
    each step the network-level kernel entry points must answer from the
    *current* structure/weights; the old arena keyed to the dead snapshot
    must be unreachable through them.
    """
    network = kernel_path(make_network(seed, num_nodes=60, num_edges=150))
    source = network.node_ids()[0]

    csr_before = network.ensure_csr()
    arena_before = kernel.arena_for(csr_before)
    # In-place weight patch: same snapshot object, so the same arena serves
    # it -- and must see the new weights immediately.
    edge = next(iter(network.edges()))
    network.apply_updates([(edge.source, edge.target, edge.weight * 3.5)])
    assert network.ensure_csr() is csr_before
    assert kernel.arena_for(network.ensure_csr()) is arena_before
    assert_same_result(
        arena(network).sssp(source),
        oracle.dijkstra_distances(network, source),
    )

    # Structural mutation supersedes the snapshot: the network entry points
    # must recompile and re-key, never reuse the old arena or its caches.
    nodes = network.node_ids()
    network.add_edge(nodes[2], nodes[-3], 0.5)
    csr_after = network.ensure_csr()
    assert csr_after is not csr_before
    arena_after = kernel.arena_for(csr_after)
    assert arena_after is not arena_before
    assert_same_result(
        arena(network).sssp(source),
        oracle.dijkstra_distances(network, source),
    )

    # The stale arena still answers for the dead snapshot it is pinned to
    # (callers holding a stale CSR get stale-snapshot answers, not current
    # ones) -- but the per-thread registry never hands it out for the live
    # snapshot, which is what "resurrection" would mean.
    assert arena_before._csr_ref() is csr_before
    assert kernel.arena_for(network.ensure_csr()) is arena_after
