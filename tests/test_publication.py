"""One artifact encode per publication.

A daemon publishes each scheme twice over -- to the artifact store and into
the shared-memory segment its workers map -- from one encode: the store
keeps the full artifact and the segment its serving form, the same artifact
without the refresh-only border-path block.  A refresh must never let an
artifact encoded before it be handed out again.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading

import pytest

from repro.air.base import AirIndexScheme
from repro.air.nr import NextRegionScheme
from repro.engine.system import AirSystem
from repro.serialize.codec import decode_value
from repro.serving.server import AirServer, ServeConfig
from repro.store import ArtifactStore

CONFIG = ServeConfig(
    network="milan",
    scale=0.01,
    seed=3,
    regions=8,
    landmarks=4,
    methods=("NR", "EB"),
    workers=1,
)


@pytest.fixture
def encodes(monkeypatch):
    """Scheme names, one per ``AirIndexScheme.artifact`` call."""
    calls = []
    original = AirIndexScheme.artifact

    def counting(self):
        calls.append(self.short_name)
        return original(self)

    monkeypatch.setattr(AirIndexScheme, "artifact", counting)
    return calls


def _assert_segment_serves_store_artifact(server: AirServer) -> None:
    """The segment holds the store artifact's serving form: same scheme,
    parameters and fingerprint, and a payload that differs from the store's
    only by the dropped border-path block."""
    system = server.system
    for name in server.config.methods:
        stored = system.store.get(
            name, system._resolve_params(name, {}), system.network.fingerprint()
        )
        assert stored is not None
        served = server.segment.artifact(name)
        assert (served.scheme, served.params, served.network_fingerprint) == (
            stored.scheme,
            stored.params,
            stored.network_fingerprint,
        )
        full = decode_value(stored.payload)
        assert full["state"]["border_paths"]["labels"]
        full["state"]["border_paths"]["labels"] = None
        assert decode_value(served.payload) == full
        del served


def test_server_publications_encode_each_scheme_once(tmp_path, encodes):
    """The server's start-up publish and one refresh through its ``_refresh``
    handler -- driven as the end-to-end benchmark's local server drives
    them -- encode each scheme exactly once, and the segment holds the
    serving form of the store's artifact."""
    config = dataclasses.replace(CONFIG, store_dir=str(tmp_path))
    server = AirServer(config)
    server.system = AirSystem.from_config(
        config.experiment_config(), store=ArtifactStore(tmp_path)
    )
    server.segment = server._publish_segment()
    try:
        assert sorted(encodes) == ["EB", "NR"]
        _assert_segment_serves_store_artifact(server)

        encodes.clear()
        network = server.system.network
        updates = [
            [edge.source, edge.target, edge.weight * 1.5]
            for edge in list(network.edges())[:4]
        ]

        async def refresh():
            server._admin_lock = asyncio.Lock()
            return await server._refresh({"updates": updates})

        reply = asyncio.run(refresh())
        assert reply["status"] == "ok" and not reply.get("degraded")
        assert sorted(reply["incremental"]) == ["EB", "NR"]
        assert sorted(encodes) == ["EB", "NR"]
        _assert_segment_serves_store_artifact(server)
        # The shared artifacts are released once the publication ends.
        assert server.system._artifacts == {}
    finally:
        server.segment.unlink()
        server.segment.close()


def test_in_place_refresh_never_hands_out_a_pre_refresh_artifact():
    system = AirSystem.from_config(CONFIG.experiment_config())
    network = system.network
    edge = next(iter(network.edges()))
    base = network.fingerprint()
    with system.publication():
        before = system.artifact("NR")
        assert system.artifact("NR") is before

        system.apply_updates([(edge.source, edge.target, edge.weight * 2.0)])
        after = system.artifact("NR")
        assert after is not before
        assert after.network_fingerprint == network.fingerprint() != base
        assert after.to_bytes() == system.scheme("NR").artifact().to_bytes()

        # Reverting returns to the first fingerprint, refreshed twice:
        # still a fresh encode.
        system.apply_updates([(edge.source, edge.target, edge.weight)])
        reverted = system.artifact("NR")
        assert network.fingerprint() == base
        assert reverted is not before and reverted is not after
        assert reverted.to_bytes() == system.scheme("NR").artifact().to_bytes()
    assert system._artifacts == {}
    # Outside a publication nothing is kept.
    assert system.artifact("NR") is not system.artifact("NR")


def test_async_refresh_never_republishes_the_serving_artifact(tmp_path, monkeypatch):
    """An artifact taken from the pre-delta scheme while a ``refresh_async``
    is in flight is not the one the replacement publishes after the swap."""
    system = AirSystem.from_config(
        CONFIG.experiment_config(), store=ArtifactStore(tmp_path)
    )
    system.scheme("NR")
    release = threading.Event()
    shadow_rebuild = NextRegionScheme.shadow_rebuild

    def gated(self, network, delta):
        assert release.wait(30)
        return shadow_rebuild(self, network, delta)

    monkeypatch.setattr(NextRegionScheme, "shadow_rebuild", gated)
    edge = next(iter(system.network.edges()))
    with system.publication():
        system.network.apply_updates([(edge.source, edge.target, edge.weight * 2.0)])
        handle = system.refresh_async()
        serving = system.artifact("NR")
        release.set()
        handle.wait()
        published = system.artifact("NR")
        assert published is not serving
        assert published.to_bytes() == system.scheme("NR").artifact().to_bytes()
        stored = system.store.get(
            "NR", system._resolve_params("NR", {}), system.network.fingerprint()
        )
        assert stored.to_bytes() == published.to_bytes()
