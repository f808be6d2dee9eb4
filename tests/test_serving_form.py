"""Serving forms: what a shared segment carries for the border-path schemes.

A daemon's workers only answer queries; the server refreshes its own
system and publishes a new segment.  So the segment holds each NR/EB
artifact without the per-source border-path block (only a refresh reads
it), while the artifact store keeps the full artifact, from which a later
process can warm-start and keep refreshing incrementally.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random

import pytest

from repro.air.base import AirIndexScheme
from repro.air.border_paths import ServingRestoreError
from repro.engine.system import AirSystem
from repro.network.delta import WeightChange
from repro.serialize.codec import decode_value
from repro.serving.server import AirServer, ServeConfig
from repro.serving.shm import SharedArtifactSegment
from repro.serving.worker import WorkerRuntime
from repro.store import ArtifactStore

SCHEMES = ("NR", "EB")

CONFIG = ServeConfig(
    network="milan",
    scale=0.01,
    seed=3,
    regions=8,
    landmarks=4,
    methods=SCHEMES,
    workers=1,
)


@pytest.fixture(scope="module")
def system():
    return AirSystem.from_config(CONFIG.experiment_config())


def _updates(network, seed):
    """A four-edge weight batch as the serving protocol carries it."""
    rng = random.Random(seed)
    edges = rng.sample(list(network.edges()), 4)
    return [
        [edge.source, edge.target, edge.weight * rng.choice((0.7, 1.5))]
        for edge in edges
    ]


def _pairs(network, seed, count=12):
    rng = random.Random(seed)
    nodes = network.node_ids()
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]


def _state_without_timing(scheme):
    state = scheme.precomputation.state()
    del state["seconds"]
    return state


@pytest.mark.parametrize("name", SCHEMES)
def test_segment_artifact_holds_no_block(system, name):
    artifact = system.scheme(name).artifact()
    full = decode_value(artifact.payload)
    assert full["state"]["border_paths"]["labels"]
    segment = SharedArtifactSegment.publish(system.network, {name: artifact})
    try:
        served = segment.artifact(name)
        assert (served.scheme, served.params, served.network_fingerprint) == (
            artifact.scheme,
            artifact.params,
            artifact.network_fingerprint,
        )
        payload = decode_value(served.payload)
        assert payload["state"]["border_paths"]["labels"] is None
        full["state"]["border_paths"]["labels"] = None
        assert payload == full
        assert len(served.payload) < len(artifact.payload)
        del served
    finally:
        segment.unlink()
        segment.close()


@pytest.mark.parametrize("name", SCHEMES)
def test_serving_restore_cannot_refresh(system, name):
    network = system.network
    serving = AirIndexScheme.serving_artifact(system.scheme(name).artifact())
    restored = AirIndexScheme.from_artifact(network, serving)
    edge = next(iter(network.edges()))
    changes = [WeightChange(edge.source, edge.target, edge.weight, edge.weight * 2.0)]
    precomputation = restored.precomputation
    # An empty batch raises too: the restore can never refresh.
    for batch in (changes, []):
        with pytest.raises(ServingRestoreError, match="restored for serving"):
            precomputation.affected_sources(batch)
        with pytest.raises(ServingRestoreError, match="restored for serving"):
            precomputation.refresh(batch)
    with pytest.raises(ServingRestoreError, match="restored for serving"):
        precomputation.block
    # Everything queries read is there, and re-artifacting the restore gives
    # the serving form back, byte for byte.
    original = system.scheme(name).precomputation
    assert precomputation.traversed_regions == original.traversed_regions
    assert precomputation.min_distance == original.min_distance
    assert restored.cycle.signature() == system.scheme(name).cycle.signature()
    assert restored.artifact().to_bytes() == serving.to_bytes()
    # A serving form is its own serving form.
    assert AirIndexScheme.serving_artifact(serving).payload == serving.payload


def test_serving_artifact_keeps_other_schemes_as_they_are(system):
    artifact = system.scheme("DJ").artifact()
    assert AirIndexScheme.serving_artifact(artifact) is artifact


def _assert_worker_answers_like(runtime, system, pairs):
    options = system.default_options.replace(tune_in_offset=0)
    for name in SCHEMES:
        for source, target in pairs:
            response = runtime.handle(
                {
                    "op": "query",
                    "method": name,
                    "source": source,
                    "target": target,
                    "tune_in_offset": 0,
                    "with_path": True,
                }
            )
            assert response["status"] == "ok", response
            reference = system.query(name, source, target, options=options)
            assert (
                response["distance"],
                response["path"],
                response["tuning_time_packets"],
                response["access_latency_packets"],
                response["peak_memory_bytes"],
            ) == (
                reference.distance,
                list(reference.path),
                reference.metrics.tuning_time_packets,
                reference.metrics.access_latency_packets,
                reference.metrics.peak_memory_bytes,
            )


def test_worker_on_serving_forms_answers_like_the_server(tmp_path):
    """A worker restored from the segment answers bit-identically to the
    server's own system, before and after one refresh served through the
    server's ``_refresh`` handler."""
    config = dataclasses.replace(CONFIG, store_dir=str(tmp_path))
    server = AirServer(config)
    server.system = AirSystem.from_config(
        config.experiment_config(), store=ArtifactStore(tmp_path)
    )
    server.segment = server._publish_segment()
    runtime = WorkerRuntime(0, config=config.experiment_config())
    try:
        runtime.load_segment(server.segment.name)
        for name in SCHEMES:
            with pytest.raises(ServingRestoreError):
                runtime.system.scheme(name).precomputation.block
        pairs = _pairs(server.system.network, seed=5)
        _assert_worker_answers_like(runtime, server.system, pairs)

        async def refresh():
            server._admin_lock = asyncio.Lock()
            return await server._refresh(
                {"updates": _updates(server.system.network, seed=9)}
            )

        reply = asyncio.run(refresh())
        assert reply["status"] == "ok" and not reply.get("degraded")
        assert sorted(reply["incremental"]) == sorted(SCHEMES)
        swap = runtime.handle({"op": "_swap", "segment": server.segment.name})
        assert swap["status"] == "ok", swap
        assert runtime.segment.fingerprint == server.system.network.fingerprint()
        _assert_worker_answers_like(runtime, server.system, pairs)
    finally:
        runtime.shutdown()
        server.segment.unlink()
        server.segment.close()


def test_store_artifact_after_refresh_warm_starts_and_refreshes(tmp_path):
    """The store keeps full artifacts: a system warm-started from the ones a
    refresh wrote refreshes again, incrementally, to a scratch build's state."""
    experiment = CONFIG.experiment_config()
    first = AirSystem.from_config(experiment, store=ArtifactStore(tmp_path))
    for name in SCHEMES:
        first.scheme(name)
    first.network.apply_updates(_updates(first.network, seed=1))
    assert sorted(first.refresh().incremental) == sorted(SCHEMES)

    warm = AirSystem(
        first.network.copy(), config=experiment, store=ArtifactStore(tmp_path)
    )
    assert warm.warm_start(list(SCHEMES)).complete
    warm.network.apply_updates(_updates(warm.network, seed=2))
    report = warm.refresh()
    assert sorted(report.incremental) == sorted(SCHEMES)

    scratch = AirSystem(warm.network.copy(), config=experiment)
    for name in SCHEMES:
        refreshed, built = warm.scheme(name), scratch.scheme(name)
        assert _state_without_timing(refreshed) == _state_without_timing(built)
        assert refreshed.cycle.signature() == built.cycle.signature()
