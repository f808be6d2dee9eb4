"""Tests for the content-addressed artifact store, failure modes included.

The satellite contract: truncated/corrupted payloads are quarantined, not
crashed on; a format-version mismatch triggers a clean rebuild; concurrent
writers of the same key are safe (atomic rename); and the LRU byte cap
evicts oldest-used entries first.
"""

from __future__ import annotations

import struct
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import air
from repro.engine import AirSystem
from repro.faults import FaultInjected, FaultPlan, FaultSpec
from repro.faults import runtime as fault_runtime
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.serialize import ArtifactVersionError, BuildArtifact, FORMAT_VERSION, encode_value
from repro.store import ArtifactStore

#: AF and HiTi artifacts (48-node generated network, 4 regions) written
#: under format version 3, whose states keyed flags and super-edges by
#: ``(source, target)`` tuples.
TUPLE_KEYED_ARTIFACTS = Path(__file__).parent / "fixtures" / "tuple_keyed_artifacts"


@pytest.fixture(scope="module")
def network():
    net = generate_road_network(
        GeneratorConfig(num_nodes=80, num_edges=180, seed=3), name="store-net"
    )
    net.clear_delta()
    return net


@pytest.fixture(scope="module")
def nr_artifact(network):
    return air.create("NR", network, num_regions=8).artifact()


def small_artifact(tag: int) -> BuildArtifact:
    """A tiny handmade artifact (distinct key per ``tag``)."""
    return BuildArtifact(
        scheme="DJ",
        params={"tag": tag},
        network_fingerprint=f"{tag:032x}",
        payload=encode_value({"blob": bytes(64)}),
    )


class TestPutGet:
    def test_round_trip_and_counters(self, tmp_path, network, nr_artifact):
        store = ArtifactStore(tmp_path)
        path = store.put(nr_artifact)
        assert path.exists() and path.suffix == ".artifact"
        assert store.get("NR", nr_artifact.params, network.fingerprint()) == nr_artifact
        assert store.get("NR", {"num_regions": 4}, network.fingerprint()) is None
        stats = store.stats()
        assert (stats["hits"], stats["misses"], stats["writes"]) == (1, 1, 1)
        assert stats["entries"] == 1 and stats["bytes"] == path.stat().st_size

    def test_put_is_idempotent_per_key(self, tmp_path, nr_artifact):
        store = ArtifactStore(tmp_path)
        first = store.put(nr_artifact)
        second = store.put(nr_artifact)
        assert first == second
        assert len(store.entries()) == 1
        assert not list(first.parent.glob("*.tmp"))

    def test_entries_report_header_metadata(self, tmp_path, network, nr_artifact):
        store = ArtifactStore(tmp_path)
        store.put(nr_artifact)
        (entry,) = store.entries()
        assert entry.scheme == "NR"
        assert entry.params == dict(nr_artifact.params)
        assert entry.network_fingerprint == network.fingerprint()
        assert entry.format_version == FORMAT_VERSION


class TestCorruption:
    def _poison(self, store, artifact, mutate):
        path = store.put(artifact)
        data = bytearray(path.read_bytes())
        path.write_bytes(bytes(mutate(data)))
        return path

    def test_bit_flip_is_quarantined_not_crashed(self, tmp_path, network, nr_artifact):
        store = ArtifactStore(tmp_path)

        def flip(data):
            data[len(data) // 2] ^= 0xFF
            return data

        path = self._poison(store, nr_artifact, flip)
        assert store.get("NR", nr_artifact.params, network.fingerprint()) is None
        assert not path.exists()
        assert len(list(store.quarantine_dir.iterdir())) == 1
        assert store.stats()["quarantined"] == 1

    def test_truncated_payload_is_quarantined(self, tmp_path, network, nr_artifact):
        store = ArtifactStore(tmp_path)
        path = self._poison(store, nr_artifact, lambda data: data[: len(data) // 3])
        assert store.get("NR", nr_artifact.params, network.fingerprint()) is None
        assert not path.exists()
        assert store.stats()["quarantined"] == 1

    def test_garbage_file_is_quarantined(self, tmp_path, network, nr_artifact):
        store = ArtifactStore(tmp_path)
        self._poison(store, nr_artifact, lambda data: bytearray(b"not an artifact"))
        assert store.get("NR", nr_artifact.params, network.fingerprint()) is None
        assert store.stats()["quarantined"] == 1

    def test_verify_quarantines_only_bad_entries(self, tmp_path):
        store = ArtifactStore(tmp_path)
        good = small_artifact(1)
        store.put(good)
        bad_path = store.put(small_artifact(2))
        bad_path.write_bytes(bad_path.read_bytes()[:-8])
        outcome = store.verify()
        assert outcome == {"checked": 2, "ok": 1, "stale": 0, "quarantined": 1}
        assert store.get("DJ", good.params, good.network_fingerprint) == good

    def test_corrupted_store_entry_triggers_clean_rebuild(self, tmp_path, network):
        """The two-tier cache rebuilds (and re-publishes) through corruption."""
        store = ArtifactStore(tmp_path)
        system = AirSystem(network.copy(), store=store)
        system.scheme("NR", num_regions=8)
        (entry,) = store.entries()
        entry.path.write_bytes(entry.path.read_bytes()[:40])

        fresh = AirSystem(network.copy(), store=store)
        scheme = fresh.scheme("NR", num_regions=8)  # must not raise
        assert scheme.cycle.total_packets > 0
        info = fresh.cache_info()
        assert info.disk_hits == 0 and info.disk_quarantined == 1
        # The rebuild re-published a good artifact.
        assert store.verify()["ok"] == 1


class TestVersionMismatch:
    def _reversion(self, path, version):
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, version)
        path.write_bytes(bytes(data))

    def test_foreign_version_reads_as_clean_miss(self, tmp_path, network, nr_artifact):
        store = ArtifactStore(tmp_path)
        path = store.put(nr_artifact)
        self._reversion(path, FORMAT_VERSION + 7)
        assert store.get("NR", nr_artifact.params, network.fingerprint()) is None
        # Stale files are deleted, not quarantined: nothing was corrupted.
        assert not path.exists()
        assert not store.quarantine_dir.exists()
        stats = store.stats()
        assert stats["stale_versions"] == 1 and stats["quarantined"] == 0

    def test_version_mismatch_triggers_clean_rebuild(self, tmp_path, network):
        store = ArtifactStore(tmp_path)
        system = AirSystem(network.copy(), store=store)
        system.scheme("EB", num_regions=8)
        (entry,) = store.entries()
        self._reversion(entry.path, FORMAT_VERSION + 1)

        fresh = AirSystem(network.copy(), store=store)
        scheme = fresh.scheme("EB", num_regions=8)
        assert scheme.cycle.total_packets > 0
        info = fresh.cache_info()
        assert info.disk_hits == 0
        # Rebuilt and re-published under the current version.
        assert store.verify() == {"checked": 1, "ok": 1, "stale": 0, "quarantined": 0}

    @pytest.mark.parametrize("name", ["AF", "HiTi"])
    def test_tuple_keyed_state_artifact_is_stale_and_rebuilt(self, tmp_path, name):
        """An AF or HiTi artifact of format version 3 -- tuple-keyed flag
        and super-edge dicts, before the per-edge flag list and the
        parallel super-edge lists -- reads as a stale miss; the system
        rebuilds, re-publishes under the current version, and a restore
        from what it stored equals the scratch build."""
        network = generate_road_network(
            GeneratorConfig(num_nodes=48, num_edges=110, seed=21), name="record-writer"
        )
        network.clear_delta()
        data = (TUPLE_KEYED_ARTIFACTS / f"{name.lower()}.artifact").read_bytes()
        with pytest.raises(ArtifactVersionError) as caught:
            BuildArtifact.from_bytes(data)
        assert (caught.value.found, caught.value.expected) == (3, FORMAT_VERSION)

        store = ArtifactStore(tmp_path)
        params = {"num_regions": 4}
        path = store.object_path(name, params, network.fingerprint())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        system = AirSystem(network.copy(), store=store)
        built = system.scheme(name, **params)
        info = system.cache_info()
        assert (info.disk_hits, info.disk_misses) == (0, 1)
        assert store.stats()["stale_versions"] == 1
        assert store.verify() == {"checked": 1, "ok": 1, "stale": 0, "quarantined": 0}

        fresh = AirSystem(network.copy(), store=store)
        restored = fresh.scheme(name, **params)
        assert fresh.cache_info().disk_hits == 1
        assert restored.index.state() == built.index.state()
        assert restored.cycle.signature() == built.cycle.signature()
        nodes = network.node_ids()
        for source, target in zip(nodes[::5], nodes[3::7]):
            want = built.client().query(source, target, tune_in_offset=11)
            got = restored.client().query(source, target, tune_in_offset=11)
            assert (got.distance, got.path) == (want.distance, want.path)


class TestConcurrentWriters:
    def test_racing_writers_of_the_same_key_are_safe(self, tmp_path, network, nr_artifact):
        store = ArtifactStore(tmp_path)
        errors = []
        barrier = threading.Barrier(8)

        def publish():
            try:
                barrier.wait(timeout=10)
                for _ in range(5):
                    store.put(nr_artifact)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=publish) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Exactly one complete, valid object; no stray temp files.
        assert len(store.entries()) == 1
        assert store.verify()["ok"] == 1
        assert not list(store.objects_dir.glob("**/*.tmp"))
        assert store.get("NR", nr_artifact.params, network.fingerprint()) == nr_artifact


class TestLRUCap:
    def test_oldest_used_entries_are_evicted_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifacts = [small_artifact(tag) for tag in range(4)]
        paths = []
        for artifact in artifacts[:3]:
            paths.append(store.put(artifact))
            time.sleep(0.01)
        # Touch #0 so #1 becomes the least recently used.
        store.get("DJ", artifacts[0].params, artifacts[0].network_fingerprint)
        time.sleep(0.01)
        # Cap so that adding one more must evict exactly one entry.
        store.max_bytes = store.total_bytes()
        store.put(artifacts[3])
        present = [
            store.contains("DJ", artifact.params, artifact.network_fingerprint)
            for artifact in artifacts
        ]
        assert present == [True, False, True, True]
        assert store.evictions == 1

    def test_cap_smaller_than_one_artifact_keeps_the_newest(self, tmp_path):
        store = ArtifactStore(tmp_path, max_bytes=1)
        first, second = small_artifact(1), small_artifact(2)
        store.put(first)
        time.sleep(0.01)
        store.put(second)
        assert not store.contains("DJ", first.params, first.network_fingerprint)
        assert store.contains("DJ", second.params, second.network_fingerprint)

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path, max_bytes=-1)

    def test_gc_enforces_cap_and_purges_quarantine(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for tag in range(3):
            path = store.put(small_artifact(tag))
            time.sleep(0.01)
        path.write_bytes(b"junk")
        assert store.verify()["quarantined"] == 1
        outcome = store.gc(max_bytes=0, purge_quarantine=True)
        assert outcome["remaining_entries"] == 0
        assert outcome["purged_quarantine"] == 1
        assert outcome["remaining_bytes"] == 0
        # Empty shard directories are tidied away.
        assert store.objects_dir.is_dir() is False or not any(
            store.objects_dir.iterdir()
        )


class TestPrune:
    def test_prune_drops_only_matching_fingerprints(self, tmp_path):
        store = ArtifactStore(tmp_path)
        artifacts = [small_artifact(tag) for tag in range(3)]
        for artifact in artifacts:
            store.put(artifact)
        removed = store.prune({artifacts[0].network_fingerprint})
        assert removed == 1
        assert not store.contains(
            "DJ", artifacts[0].params, artifacts[0].network_fingerprint
        )
        for artifact in artifacts[1:]:
            assert store.contains("DJ", artifact.params, artifact.network_fingerprint)


class TestTornWrites:
    """Writer-killed-mid-``put`` behaviour via the ``store.put.torn`` hook.

    The property under test: no matter where the tear lands, the object
    path is never exposed (readers see a clean miss, not corruption), the
    only evidence is an invisible staging dotfile, and one
    ``clean_staging()`` + re-``put`` pass makes the store whole again.
    """

    @pytest.fixture(autouse=True)
    def _no_leaked_plan(self):
        yield
        fault_runtime.clear()

    @given(fraction=st.floats(0.05, 0.95), tag=st.integers(0, 999))
    @settings(max_examples=20, deadline=None)
    def test_torn_put_never_exposes_a_partial_object(
        self, tmp_path_factory, fraction, tag
    ):
        store = ArtifactStore(tmp_path_factory.mktemp("torn"))
        artifact = small_artifact(tag)
        fault_runtime.install(
            FaultPlan(
                [
                    FaultSpec(
                        point="store.put.torn",
                        times=1,
                        params={"fraction": fraction},
                    )
                ],
                seed=1,
            )
        )
        with pytest.raises(FaultInjected):
            store.put(artifact)
        fault_runtime.clear()

        # The final path was never touched: a reader gets a clean miss and
        # nothing lands in quarantine (there is no partial object to see).
        assert store.get("DJ", artifact.params, artifact.network_fingerprint) is None
        assert store.stats()["quarantined"] == 0
        assert store.writes == 0

        # The tear left exactly one truncated staging dotfile behind.
        debris = list(store.objects_dir.glob("*/.*.tmp"))
        assert len(debris) == 1
        torn_size = debris[0].stat().st_size
        assert torn_size > 0

        # One-pass recovery: sweep the debris, re-publish, round-trip.
        assert store.clean_staging() == 1
        assert not list(store.objects_dir.glob("*/.*.tmp"))
        path = store.put(artifact)
        assert torn_size < path.stat().st_size
        assert store.get("DJ", artifact.params, artifact.network_fingerprint) == artifact
        assert store.verify() == {"checked": 1, "ok": 1, "stale": 0, "quarantined": 0}

    def test_gc_sweeps_torn_staging_files(self, tmp_path):
        store = ArtifactStore(tmp_path)
        fault_runtime.install(
            FaultPlan([FaultSpec(point="store.put.torn", times=1)], seed=3)
        )
        with pytest.raises(FaultInjected):
            store.put(small_artifact(1))
        fault_runtime.clear()
        outcome = store.gc()
        assert outcome["staging_removed"] == 1
        assert not list(store.objects_dir.glob("**/*.tmp"))

    def test_read_side_bit_rot_quarantines_on_get(self, tmp_path):
        """The ``store.get.corrupt`` hook drives the real quarantine path."""
        store = ArtifactStore(tmp_path)
        artifact = small_artifact(7)
        store.put(artifact)
        fault_runtime.install(
            FaultPlan([FaultSpec(point="store.get.corrupt", times=1)], seed=2)
        )
        assert store.get("DJ", artifact.params, artifact.network_fingerprint) is None
        fault_runtime.clear()
        assert store.stats()["quarantined"] == 1
        assert len(list(store.quarantine_dir.iterdir())) == 1
        # The slot is free again: a re-publish restores service.
        store.put(artifact)
        assert store.get("DJ", artifact.params, artifact.network_fingerprint) == artifact


class TestKeying:
    def test_key_embeds_every_component(self, nr_artifact):
        base = ArtifactStore.key_of(nr_artifact)
        assert ArtifactStore.key_for(
            "EB", nr_artifact.params_fingerprint(), nr_artifact.network_fingerprint
        ) != base
        assert ArtifactStore.key_for(
            "NR", "0" * 64, nr_artifact.network_fingerprint
        ) != base
        assert ArtifactStore.key_for(
            "NR", nr_artifact.params_fingerprint(), "0" * 32
        ) != base
        assert ArtifactStore.key_for(
            "NR",
            nr_artifact.params_fingerprint(),
            nr_artifact.network_fingerprint,
            FORMAT_VERSION + 1,
        ) != base


class TestDriftTolerance:
    def test_foreign_version_entries_are_skipped_not_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keep = small_artifact(1)
        store.put(keep)
        foreign_path = store.put(small_artifact(2))
        data = bytearray(foreign_path.read_bytes())
        struct.pack_into("<H", data, 4, FORMAT_VERSION + 1)
        foreign_path.write_bytes(bytes(data))
        entries = store.entries()
        # Only the current-version entry is listed; the foreign file stays
        # on disk, untouched, for its own version's readers.
        assert [entry.scheme for entry in entries] == ["DJ"]
        assert len(entries) == 1
        assert foreign_path.exists()
        assert store.stats()["quarantined"] == 0

    def test_payload_schema_drift_degrades_to_rebuild(self, tmp_path, network):
        """A checksum-valid artifact whose state shape moved must rebuild,
        not crash the serving path (the undetectable-drift failure mode)."""
        store = ArtifactStore(tmp_path)
        publisher = AirSystem(network.copy(), store=store)
        built = publisher.scheme("NR", num_regions=8)
        # Forge a valid artifact whose payload is missing the state keys.
        forged = BuildArtifact(
            scheme="NR",
            params=built._artifact_params(),
            network_fingerprint=network.fingerprint(),
            payload=encode_value({"state": {}, "precomputation_seconds": 0.0, "cycle": {}}),
        )
        store.put(forged)

        system = AirSystem(network.copy(), store=ArtifactStore(tmp_path))
        scheme = system.scheme("NR", num_regions=8)  # must not raise
        assert scheme.cycle.signature() == built.cycle.signature()
        info = system.cache_info()
        assert info.disk_hits == 1  # the store served it; restore then bailed
        # The rebuild re-published a good artifact over the forged one.
        fresh = AirSystem(network.copy(), store=ArtifactStore(tmp_path))
        assert fresh.warm_start(["NR"]).missing == ("NR",)  # default params differ
        restored = fresh.scheme("NR", num_regions=8)
        assert restored.cycle.signature() == built.cycle.signature()
        assert fresh.cache_info().disk_hits == 1
