"""Property suite for the build/serve split: artifact round trips.

The hard contract of PR 5: for every registered scheme, a scheme restored
with ``Scheme.from_artifact(network, artifact)`` -- including through a full
byte serialization and a disk-store round trip -- must be *bit-identical* in
behaviour to the scratch build it came from:

* equal broadcast cycles (``BroadcastCycle.signature()``),
* equal answers, paths, and packet/memory metrics for arbitrary queries
  (CPU seconds excepted: those are wall clock),
* equal refresh behaviour under subsequent weight updates, and
* byte-stable golden-trace replays.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import air
from repro.air.base import AirIndexScheme
from repro.broadcast.replay import RecordingSession
from repro.engine import AirSystem, ArtifactStore
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.serialize import ArtifactMismatchError, BuildArtifact

#: Per-scheme parameters sized for the small property networks.
SCHEME_PARAMS = {
    "DJ": {},
    "NR": {"num_regions": 8},
    "EB": {"num_regions": 8},
    "LD": {"num_landmarks": 2},
    "AF": {"num_regions": 8},
    "SPQ": {"max_depth": 8},
    "HiTi": {"num_regions": 8},
}

NETWORK_SEEDS = (97, 12)


def independent_copy(network):
    """An independent network equal to ``network``: same fingerprint, same
    node order."""
    copy = network.copy()
    assert copy.fingerprint() == network.fingerprint()
    assert copy.node_ids() == network.node_ids()
    return copy


def make_network(seed: int):
    network = generate_road_network(
        GeneratorConfig(num_nodes=110, num_edges=260, seed=seed),
        name=f"artifact-net-{seed}",
    )
    network.clear_delta()
    return network


def round_trip(scheme, network):
    """scheme -> artifact -> bytes -> artifact -> scheme, on ``network``."""
    artifact = BuildArtifact.from_bytes(scheme.artifact().to_bytes())
    return AirIndexScheme.from_artifact(network, artifact)


def metrics_key(result):
    """Everything deterministic about a query result (CPU time excluded)."""
    return (
        result.distance,
        tuple(result.path),
        tuple(result.received_regions),
        result.metrics.tuning_time_packets,
        result.metrics.access_latency_packets,
        result.metrics.peak_memory_bytes,
        result.metrics.lost_packets,
        tuple(sorted(result.metrics.extra.items())),
    )


def assert_serves_identically(scratch, restored, seed: int, queries: int = 6):
    """Same answers, paths, and packet metrics for sampled queries."""
    assert restored.cycle.signature() == scratch.cycle.signature()
    rng = random.Random(seed)
    nodes = scratch.network.node_ids()
    offsets = range(0, scratch.cycle.total_packets, max(1, scratch.cycle.total_packets // queries))
    for offset in list(offsets)[:queries]:
        source, target = rng.choice(nodes), rng.choice(nodes)
        left = scratch.client().query(source, target, tune_in_offset=offset)
        right = restored.client().query(source, target, tune_in_offset=offset)
        assert metrics_key(left) == metrics_key(right), (
            f"{scratch.short_name}: query {source}->{target}@{offset} diverged"
        )


@pytest.mark.parametrize("seed", NETWORK_SEEDS)
@pytest.mark.parametrize("name", sorted(SCHEME_PARAMS))
def test_round_trip_serves_bit_identically(name, seed):
    network = make_network(seed)
    scratch = air.create(name, network, **SCHEME_PARAMS[name])
    scratch.cycle
    # Restore onto an *independent, equal* network: the full build/serve
    # split, in which the serving side holds its own network.
    serving_network = independent_copy(network)
    restored = round_trip(scratch, serving_network)
    assert type(restored) is type(scratch)
    assert restored.precomputation_seconds == scratch.precomputation_seconds
    assert_serves_identically(scratch, restored, seed=seed)
    # Server-side accounting matches too (cycle composition is the paper's
    # Table 1 row).
    left, right = scratch.server_metrics(), restored.server_metrics()
    assert (left.cycle_packets, left.cycle_bytes, left.data_packets, left.index_packets) == (
        right.cycle_packets,
        right.cycle_bytes,
        right.data_packets,
        right.index_packets,
    )


@pytest.mark.parametrize("name", ["DJ", "NR", "EB", "HiTi"])
def test_restored_scheme_refreshes_bit_identically(name):
    """Weight updates after a restore take the same incremental path."""
    build_network = make_network(31)
    serving_network = independent_copy(build_network)
    scratch = air.create(name, build_network, **SCHEME_PARAMS[name])
    scratch.cycle
    restored = round_trip(scratch, serving_network)

    rng = random.Random(77)
    edges = [(e.source, e.target) for e in build_network.edges()]
    for _ in range(3):
        updates = [
            (s, t, round(rng.uniform(0.5, 3.0) * build_network.edge_weight(s, t), 6))
            for s, t in rng.sample(edges, 4)
        ]
        build_network.apply_updates(updates)
        serving_network.apply_updates(updates)
        scratch = scratch.shadow_rebuild(build_network, build_network.pending_delta())
        restored = restored.shadow_rebuild(
            serving_network, serving_network.pending_delta()
        )
        build_network.clear_delta()
        serving_network.clear_delta()
        assert scratch is not None and restored is not None
        assert restored.cycle.signature() == scratch.cycle.signature()
    assert_serves_identically(scratch, restored, seed=5, queries=4)


@pytest.mark.parametrize("name", sorted(SCHEME_PARAMS))
def test_golden_traces_replay_byte_stable_through_store_round_trip(name, tmp_path):
    """The recorded golden session, replayed via artifact -> store -> restore,
    renders byte-identically to the committed fixture."""
    from test_golden_traces import (
        GOLDEN_PARAMS,
        TUNE_IN_FRACTION,
        build_golden_payload,
        fixture_path,
        golden_network,
        golden_query,
        render,
    )

    network = golden_network()
    store = ArtifactStore(tmp_path)
    built = air.create(name, network, **GOLDEN_PARAMS[air.canonical_name(name)])
    store.put(built.artifact())
    artifact = store.get(
        air.canonical_name(name), built._artifact_params(), network.fingerprint()
    )
    assert artifact is not None
    scheme = AirIndexScheme.from_artifact(golden_network(), artifact)

    cycle = scheme.cycle
    offset = int(cycle.total_packets * TUNE_IN_FRACTION) % cycle.total_packets
    source, target = golden_query(scheme.network)
    session = RecordingSession(cycle, offset)
    result = scheme.client().query(source, target, session=session)
    payload = build_golden_payload(name)
    replayed = {
        "answer": {"distance": result.distance, "found": result.found},
        "metrics": {
            "tuning_time_packets": result.metrics.tuning_time_packets,
            "access_latency_packets": result.metrics.access_latency_packets,
        },
        "trace": [
            {
                "kind": op.kind.value,
                "name": op.name,
                "packet_count": op.packet_count,
                "last_offset": op.last_offset,
                "anchor": op.anchor,
            }
            for op in session.trace().ops
        ],
    }
    for key, value in replayed.items():
        assert payload[key] == value, f"{name}: {key} diverged through the store"
    # And the committed fixture is what both render to, byte for byte.
    assert fixture_path(name).read_bytes() == render(payload).encode("utf-8")


class TestFromArtifactValidation:
    def test_network_fingerprint_mismatch_raises(self):
        network = make_network(97)
        scheme = air.create("NR", network, **SCHEME_PARAMS["NR"])
        artifact = scheme.artifact()
        other = make_network(12)
        with pytest.raises(ArtifactMismatchError):
            AirIndexScheme.from_artifact(other, artifact)

    def test_mutated_network_rejects_stale_artifact(self):
        network = make_network(97)
        scheme = air.create("DJ", network)
        artifact = scheme.artifact()
        edge = next(iter(network.edges()))
        network.update_edge_weight(edge.source, edge.target, edge.weight + 1.0)
        with pytest.raises(ArtifactMismatchError):
            AirIndexScheme.from_artifact(network, artifact)

    def test_wrong_scheme_class_raises(self):
        from repro.air.eb import EllipticBoundaryScheme

        network = make_network(97)
        artifact = air.create("NR", network, **SCHEME_PARAMS["NR"]).artifact()
        with pytest.raises(ArtifactMismatchError):
            EllipticBoundaryScheme.from_artifact(network, artifact)


class TestWarmStartFlow:
    def test_warm_started_system_serves_identical_batches(self, tmp_path):
        from repro.experiments import QueryWorkload

        network = make_network(97)
        cold = AirSystem(independent_copy(network), store=ArtifactStore(tmp_path))
        names = ["DJ", "NR", "EB"]
        for name in names:
            cold.scheme(name, **SCHEME_PARAMS[name])

        # A fresh store handle, as a restarted process would hold (counters
        # are per-instance; the files are shared).
        warm = AirSystem(independent_copy(network), store=ArtifactStore(tmp_path))
        # Default params differ from SCHEME_PARAMS, so pre-seed via scheme();
        # warm_start covers the default roster separately below.
        for name in names:
            warm.scheme(name, **SCHEME_PARAMS[name])
        info = warm.cache_info()
        assert info.disk_hits == len(names) and info.disk_misses == 0

        workload = QueryWorkload(network, 12, seed=4)
        for name in names:
            left = cold.query_batch(name, workload, **SCHEME_PARAMS[name])
            right = warm.query_batch(name, workload, **SCHEME_PARAMS[name])
            assert left.mismatches == right.mismatches
            for a, b in zip(left.per_query, right.per_query):
                assert (
                    a.tuning_time_packets,
                    a.access_latency_packets,
                    a.peak_memory_bytes,
                ) == (
                    b.tuning_time_packets,
                    b.access_latency_packets,
                    b.peak_memory_bytes,
                )

    def test_warm_start_reports_loaded_and_missing(self, tmp_path):
        network = make_network(12)
        store = ArtifactStore(tmp_path)
        publisher = AirSystem(network.copy(), store=store)
        publisher.scheme("DJ")
        publisher.scheme("LD")

        system = AirSystem(network.copy(), store=store)
        report = system.warm_start(["DJ", "LD", "NR"])
        assert report.loaded == ("DJ", "LD")
        assert report.missing == ("NR",)
        assert not report.complete
        # Loaded schemes are memory hits now: no build, no further disk read.
        hits_before = store.hits
        system.scheme("DJ")
        assert store.hits == hits_before
        assert system.cache_info().hits == 1

    def test_warm_start_requires_a_store(self):
        system = AirSystem(make_network(12))
        with pytest.raises(ValueError):
            system.warm_start()

    def test_refresh_republishes_and_prune_drops_superseded(self, tmp_path):
        network = make_network(12)
        store = ArtifactStore(tmp_path)
        system = AirSystem(network, store=store)
        system.scheme("DJ")
        old_fingerprint = network.fingerprint()

        edge = next(iter(network.edges()))
        network.update_edge_weight(edge.source, edge.target, edge.weight * 2.0)
        report = system.refresh()
        assert report.artifacts_stored == 1
        # Both fingerprints' artifacts exist until pruned.
        fingerprints = {entry.network_fingerprint for entry in store.entries()}
        assert fingerprints == {old_fingerprint, network.fingerprint()}

        dropped = system.prune_cache()
        assert dropped >= 1
        fingerprints = {entry.network_fingerprint for entry in store.entries()}
        assert fingerprints == {network.fingerprint()}

        # The refreshed artifact warm-starts a fresh process bit-identically.
        fresh = AirSystem(network.copy(), store=store)
        assert fresh.warm_start(["DJ"]).complete
        assert (
            fresh.scheme("DJ").cycle.signature()
            == system.scheme("DJ").cycle.signature()
        )


def test_non_default_record_layout_round_trips():
    """The record layout is part of the built state: an artifact built with
    custom field sizes restores with them (no explicit layout argument)."""
    from repro.air.nr import NextRegionScheme
    from repro.air.records import RecordLayout

    network = make_network(97)
    layout = RecordLayout(node_id_bytes=8, distance_bytes=8)
    scratch = NextRegionScheme(network, num_regions=8, layout=layout)
    restored = AirIndexScheme.from_artifact(
        independent_copy(network),
        BuildArtifact.from_bytes(scratch.artifact().to_bytes()),
    )
    assert restored.layout == layout
    assert_serves_identically(scratch, restored, seed=1, queries=3)


def test_disk_restores_are_not_counted_as_builds(tmp_path):
    """CacheInfo.builds means from-scratch constructions, not disk restores."""
    network = make_network(12)
    publisher = AirSystem(network.copy(), store=ArtifactStore(tmp_path))
    publisher.scheme("DJ")
    assert publisher.cache_info().builds == 1

    consumer = AirSystem(network.copy(), store=ArtifactStore(tmp_path))
    consumer.scheme("DJ")
    info = consumer.cache_info()
    assert info.misses == 1 and info.disk_restores == 1
    assert info.builds == 0


def test_explicit_layout_override_is_usable():
    """An explicit layout re-lays the cycle under the new sizing -- equal to
    a scratch build with that layout -- instead of tripping drift detection."""
    from repro.air.nr import NextRegionScheme
    from repro.air.records import RecordLayout

    network = make_network(97)
    artifact = BuildArtifact.from_bytes(
        NextRegionScheme(network, num_regions=8).artifact().to_bytes()
    )
    override = RecordLayout(node_id_bytes=8, distance_bytes=8)
    restored = AirIndexScheme.from_artifact(
        independent_copy(network), artifact, layout=override
    )
    assert restored.layout == override
    scratch = NextRegionScheme(network, num_regions=8, layout=override)
    assert restored.cycle.signature() == scratch.cycle.signature()
