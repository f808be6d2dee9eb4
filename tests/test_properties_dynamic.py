"""Property tests for dynamic networks: random update sequences.

For random weight-update sequences on random small networks, and for every
registered scheme, the engine-refreshed state must be indistinguishable from
throwing everything away and rebuilding:

(a) post-refresh on-air answers equal Dijkstra on the *mutated* network,
(b) the refreshed broadcast cycle is bit-identical (segment for segment) to
    a from-scratch build over the mutated network, regardless of whether the
    scheme took the incremental path or the full-rebuild fallback, and
(c) for the schemes with real delta rebuilds, the refreshed pre-computation
    internals equal a scratch pre-computation (NR/EB border aggregates,
    HiTi super-edge hierarchies).

Like :mod:`test_properties_fleet`, these run on plain seeded-random
generators rather than hypothesis so the sampled sequences stay identical
across runs.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

import numpy as np
import pytest

from repro import air
from repro.engine import AirSystem
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.algorithms.paths import INFINITY
from repro.network.graph import RoadNetwork

from test_properties_fleet import SMALL_PARAMS, random_network

SEEDS = [3, 17]
#: Every per-source column of the NR/EB border-path block.
BLOCK_COLUMNS = (
    "dist", "pred", "cross", "finite_pairs", "min_to", "max_to", "reach", "traversed"
)
#: Schemes whose shadow_rebuild applies real weight deltas.
INCREMENTAL_SCHEMES = {"DJ", "NR", "EB", "HiTi"}


def random_update_batch(
    network: RoadNetwork, rng: random.Random, size: int = 3
) -> List[Tuple[int, int, float]]:
    """``size`` distinct-edge weight updates with positive random targets."""
    pairs = sorted({(edge.source, edge.target) for edge in network.edges()})
    batch = []
    for source, target in rng.sample(pairs, min(size, len(pairs))):
        weight = network.edge_weight(source, target)
        batch.append((source, target, weight * rng.uniform(0.3, 3.0)))
    return batch


def assert_answers_match_dijkstra(scheme, network: RoadNetwork, rng: random.Random):
    nodes = network.node_ids()
    client = scheme.client()
    checked = 0
    while checked < 4:
        source, target = rng.choice(nodes), rng.choice(nodes)
        if source == target:
            continue
        truth = shortest_path(network, source, target).distance
        if truth == INFINITY:
            continue
        checked += 1
        result = client.query(source, target)
        assert result.found
        assert math.isclose(result.distance, truth, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme_name", sorted(SMALL_PARAMS))
def test_refresh_equals_scratch_rebuild_on_random_updates(scheme_name, seed):
    network = random_network(seed)
    network.clear_delta()
    params = SMALL_PARAMS[scheme_name]
    system = AirSystem(network)
    system.scheme(scheme_name, **params)
    rng = random.Random(seed + 71)

    for round_ in range(3):
        report = system.apply_updates(random_update_batch(network, rng))
        name = air.canonical_name(scheme_name)
        if name in INCREMENTAL_SCHEMES:
            assert report.incremental == (name,)
        else:
            assert report.rebuilt == (name,)

        refreshed = system.scheme(scheme_name, **params)
        scratch = air.create(scheme_name, network, **params)

        # (b) bit-identical cycle layout against a from-scratch build.
        assert refreshed.cycle.signature() == scratch.cycle.signature()

        # (c) internals for the real delta rebuilds.
        if name in ("NR", "EB"):
            assert refreshed.precomputation.min_distance == scratch.precomputation.min_distance
            assert refreshed.precomputation.max_distance == scratch.precomputation.max_distance
            assert (
                refreshed.precomputation.cross_border_nodes
                == scratch.precomputation.cross_border_nodes
            )
            assert (
                refreshed.precomputation.traversed_regions
                == scratch.precomputation.traversed_regions
            )
            assert (
                refreshed.precomputation.num_border_pairs
                == scratch.precomputation.num_border_pairs
            )
        if name == "HiTi":
            for level, scratch_level in zip(refreshed.index.levels, scratch.index.levels):
                for first, subgraph in scratch_level.items():
                    assert level[first].super_edges == subgraph.super_edges
                    assert level[first].border_nodes == subgraph.border_nodes

        # (a) answers equal Dijkstra on the mutated network.
        assert_answers_match_dijkstra(refreshed, network, rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_structural_mutation_routes_through_full_rebuild(seed):
    network = random_network(seed)
    network.clear_delta()
    system = AirSystem(network)
    system.scheme("NR", **SMALL_PARAMS["NR"])
    nodes = network.node_ids()
    network.add_edge(nodes[0], nodes[-1], 7.5)
    report = system.refresh()
    assert report.structural
    assert report.rebuilt == ("NR",)
    assert report.incremental == ()
    rng = random.Random(seed)
    assert_answers_match_dijkstra(
        system.scheme("NR", **SMALL_PARAMS["NR"]), network, rng
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_weight_and_structural_updates_stay_exact(seed):
    """A mixed mutate/refresh/query loop never serves a stale answer."""
    network = random_network(seed)
    network.clear_delta()
    system = AirSystem(network)
    rng = random.Random(seed + 5)
    for round_ in range(4):
        if round_ == 2:
            nodes = network.node_ids()
            network.add_edge(nodes[1], nodes[-2], rng.uniform(1.0, 20.0))
        else:
            network.apply_updates(random_update_batch(network, rng, size=2))
        system.refresh()
        assert_answers_match_dijkstra(
            system.scheme("NR", **SMALL_PARAMS["NR"]), network, rng
        )
    # The loop accumulated one superseded entry per distinct structure at
    # most; pruning keeps only the live one.
    system.prune_cache()
    assert all(key[2] == network.fingerprint() for key in system._schemes)


# ----------------------------------------------------------------------
# Repair-vs-scratch bit-identity for the NR/EB border-source repair
# ----------------------------------------------------------------------
def directed_update_batch(network, rng, kind, cached=None, size=3):
    """A ``size``-edge batch of the requested direction mix.

    ``outside`` picks only edges on no cached shortest path tree (not tight
    for any border source) and *increases* them, so a correct refresh must
    touch zero sources.
    """
    pairs = sorted({(edge.source, edge.target) for edge in network.edges()})
    if kind == "outside":
        csr = network.ensure_csr()
        index_of = csr.index_of
        chosen = []
        for source, target in pairs:
            u, v = index_of[source], index_of[target]
            weight = network.edge_weight(source, target)
            if all(
                dist[u] == INFINITY or dist[u] + weight > dist[v]
                for dist in cached
            ):
                chosen.append((source, target, weight * rng.uniform(1.05, 2.0)))
                if len(chosen) == size:
                    break
        return chosen
    factors = {
        "decrease": (0.3, 0.95),
        "increase": (1.05, 3.0),
        "mixed": (0.3, 3.0),
    }[kind]
    batch = []
    for source, target in rng.sample(pairs, min(size, len(pairs))):
        weight = network.edge_weight(source, target)
        batch.append((source, target, weight * rng.uniform(*factors)))
    return batch


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["decrease", "increase", "mixed", "outside"])
@pytest.mark.parametrize("scheme_name", ["NR", "EB"])
def test_repair_labels_bit_identical_to_scratch(scheme_name, kind, seed):
    """The dynamic SSSP repair reproduces scratch labels *exactly*.

    Stronger than the aggregate checks above: every border source's full
    distance and predecessor arrays -- including equal-distance tie-breaks
    -- must match a from-scratch pre-computation bit for bit after each
    refresh round.
    """
    network = random_network(seed)
    network.clear_delta()
    params = SMALL_PARAMS[scheme_name]
    system = AirSystem(network)
    system.scheme(scheme_name, **params)
    rng = random.Random(seed * 101 + len(kind))

    for round_ in range(3):
        precomputation = system.scheme(scheme_name, **params).precomputation
        batch = directed_update_batch(
            network, rng, kind, cached=precomputation.block.dist.tolist()
        )
        if not batch:
            pytest.skip("no qualifying edges on this network")
        network.apply_updates(batch)
        if kind == "outside":
            # No cached tree uses these edges and they only got longer:
            # the affected-source test must prove no source can move.
            assert precomputation.affected_sources(
                network.pending_delta().changes
            ) == []
        report = system.refresh()
        assert report.incremental == (air.canonical_name(scheme_name),)

        refreshed = system.scheme(scheme_name, **params)
        scratch = air.create(scheme_name, network, **params)
        assert refreshed.cycle.signature() == scratch.cycle.signature()
        assert (
            refreshed.precomputation._all_border == scratch.precomputation._all_border
        )
        block = refreshed.precomputation.block
        scratch_block = scratch.precomputation.block
        for column in BLOCK_COLUMNS:
            assert np.array_equal(
                getattr(block, column), getattr(scratch_block, column)
            ), column


@pytest.mark.parametrize("seed", SEEDS)
def test_raise_then_lower_same_edge_in_one_batch(seed):
    """Per-edge coalescing must keep the true pre-batch old weight.

    A batch that raises and then lowers the same edge coalesces to one
    change with first-old/last-new semantics; misreporting the old weight
    would let ``affected_sources`` skip sources whose trees used the edge
    at its pre-batch weight.
    """
    network = random_network(seed)
    network.clear_delta()
    params = SMALL_PARAMS["NR"]
    system = AirSystem(network)
    system.scheme("NR", **params)
    rng = random.Random(seed + 13)
    pairs = sorted({(edge.source, edge.target) for edge in network.edges()})
    source, target = rng.choice(pairs)
    original = network.edge_weight(source, target)

    # Raise then lower below the original, in one batch: net decrease.
    network.apply_updates([(source, target, original * 4.0), (source, target, original * 0.5)])
    delta = network.pending_delta()
    assert len(delta.changes) == 1
    (change,) = delta.changes
    assert change.old_weight == original
    assert change.new_weight == original * 0.5
    report = system.refresh()
    assert report.incremental == ("NR",)
    refreshed = system.scheme("NR", **params)
    scratch = air.create("NR", network, **params)
    assert refreshed.cycle.signature() == scratch.cycle.signature()
    assert refreshed.precomputation.min_distance == scratch.precomputation.min_distance
    assert refreshed.precomputation.max_distance == scratch.precomputation.max_distance
    assert_answers_match_dijkstra(refreshed, network, rng)

    # Raise then restore: the coalesced delta must vanish entirely and the
    # fingerprint return to its pre-batch value (nothing to refresh).
    fingerprint = network.fingerprint()
    current = network.edge_weight(source, target)
    network.apply_updates([(source, target, current * 3.0), (source, target, current)])
    assert len(network.pending_delta().changes) == 0
    assert network.fingerprint() == fingerprint
    report = system.refresh()
    assert report.incremental == () and report.rebuilt == ()
    assert_answers_match_dijkstra(system.scheme("NR", **params), network, rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_refresh_async_swap_equals_blocking_refresh(seed):
    """``refresh_async`` lands exactly the state a blocking refresh would."""
    network = random_network(seed)
    network.clear_delta()
    system = AirSystem(network)
    for name in ("NR", "EB"):
        system.scheme(name, **SMALL_PARAMS[name])
    rng = random.Random(seed + 29)

    for _ in range(2):
        network.apply_updates(random_update_batch(network, rng))
        handle = system.refresh_async()
        report = handle.wait(60.0)
        assert handle.done
        assert set(report.incremental) == {"NR", "EB"}
        assert report.rebuilt == ()
        for name in ("NR", "EB"):
            refreshed = system.scheme(name, **SMALL_PARAMS[name])
            scratch = air.create(name, network, **SMALL_PARAMS[name])
            assert refreshed.cycle.signature() == scratch.cycle.signature()
        assert_answers_match_dijkstra(
            system.scheme("NR", **SMALL_PARAMS["NR"]), network, rng
        )

    # A no-op refresh_async returns an already-completed handle.
    handle = system.refresh_async()
    assert handle.done
    assert handle.wait(0.0).num_changes == 0


@pytest.mark.parametrize("scheme_name", ["NR", "EB"])
def test_refresh_repacks_exactly_the_regions_whose_cross_border_set_moved(scheme_name):
    """A batch that moves nodes between cross-border and local segments.

    The random batches above never change a region's cross-border set on
    their small networks.  Here twenty edges become 20x longer or 20x
    shorter on a 120-node network, which moves the split of two regions:
    the refreshed replacement must lay out exactly the scratch cycle,
    re-packing those regions and reusing every other region's segments as
    they are, and the refreshed scheme keeps its own cycle.
    """
    from repro.network.generators import GeneratorConfig, generate_road_network

    network = generate_road_network(
        GeneratorConfig(num_nodes=120, num_edges=300, seed=0), name="split-moves"
    )
    network.clear_delta()
    scheme = air.create(scheme_name, network, num_regions=8)
    before = scheme.cycle
    rng = random.Random(0)
    pairs = sorted({(edge.source, edge.target) for edge in network.edges()})
    network.apply_updates(
        [
            (source, target, network.edge_weight(source, target) * rng.choice([0.05, 20.0]))
            for source, target in rng.sample(pairs, 20)
        ]
    )
    delta = network.pending_delta()
    shadow = scheme.shadow_rebuild(network, delta)
    assert shadow is not None
    assert scheme.cycle is before
    scratch = air.create(scheme_name, network, num_regions=8)
    assert shadow.cycle.signature() == scratch.cycle.signature()
    data = [seg for seg in shadow.cycle.segments if seg.name.startswith("region-")]
    moved = {
        seg.name
        for seg in data
        if seg.payload["nodes"] != before.segment(seg.name).payload["nodes"]
    }
    assert len(moved) == 2
    for segment in data:
        assert (segment is before.segment(segment.name)) == (segment.name not in moved)
