"""Tests for the broadcast serving daemon (repro.serving).

Strategy: the protocol, segment and worker-runtime layers are exercised
in-process (that is where the logic lives); a handful of end-to-end tests
launch a real daemon -- forked workers, shared-memory segment, unix socket
-- and pin down the operational contract: bit-identical answers, bounded
queues with busy/retry-after, crash -> respawn without wrong answers,
refresh swaps that never serve a torn cycle, idempotent shutdown.
"""

import dataclasses
import io
import random
import socket
import threading
import time

import pytest

from repro.engine.system import AirSystem
from repro.serving import (
    ProtocolError,
    ServeConfig,
    ServerBusy,
    ServerError,
    ServerHandle,
    ServingClient,
    SharedArtifactSegment,
    run_load,
)
from repro.serving.protocol import (
    encode_frame,
    raise_for_status,
    read_frame,
    write_frame,
)
from repro.serving.worker import WorkerRuntime


BASE_CONFIG = ServeConfig(
    network="milan",
    scale=0.01,
    seed=3,
    regions=8,
    landmarks=4,
    methods=("NR",),
    workers=2,
    max_pending=8,
    routing="region",
)


@pytest.fixture(scope="module")
def direct_system():
    """The reference: a direct in-process AirSystem over the same config."""
    return AirSystem.from_config(BASE_CONFIG.experiment_config())


@pytest.fixture(scope="module")
def server(direct_system):
    handle = ServerHandle.launch(BASE_CONFIG)
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def query_pairs(direct_system):
    rng = random.Random(17)
    nodes = direct_system.network.node_ids()
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(10)]


def _direct_result(system, source, target):
    options = system.default_options.replace(tune_in_offset=0)
    return system.query("NR", source, target, options=options)


# ----------------------------------------------------------------------
# Protocol layer
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            write_frame(left, {"op": "ping", "n": 3})
            assert read_frame(right) == {"op": "ping", "n": 3}
        finally:
            left.close()
            right.close()

    def test_clean_eof_reads_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert read_frame(right) is None
        finally:
            right.close()

    def test_mid_frame_eof_raises(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame({"op": "ping"})
            left.sendall(frame[: len(frame) - 2])
            left.close()
            with pytest.raises(ProtocolError):
                read_frame(right)
        finally:
            right.close()

    def test_oversized_length_prefix_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ProtocolError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_non_object_payload_rejected(self):
        left, right = socket.socketpair()
        try:
            payload = b"[1,2,3]"
            left.sendall(len(payload).to_bytes(4, "little") + payload)
            with pytest.raises(ProtocolError):
                read_frame(right)
        finally:
            left.close()
            right.close()

    def test_raise_for_status_translates(self):
        assert raise_for_status({"status": "ok", "x": 1})["x"] == 1
        with pytest.raises(ServerBusy) as busy:
            raise_for_status({"status": "busy", "retry_after_ms": 12.5})
        assert busy.value.retry_after_ms == 12.5
        with pytest.raises(ServerError, match="boom"):
            raise_for_status({"status": "error", "error": "boom"})
        with pytest.raises(ProtocolError):
            raise_for_status({"status": "wat"})


# ----------------------------------------------------------------------
# Shared segment
# ----------------------------------------------------------------------
class TestSharedArtifactSegment:
    @pytest.fixture()
    def segment(self, direct_system):
        scheme = direct_system.scheme("NR")
        published = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        yield published
        published.unlink()
        published.close()

    def test_rejects_stale_artifacts(self, direct_system):
        import dataclasses

        scheme = direct_system.scheme("NR")
        artifact = dataclasses.replace(scheme.artifact(), network_fingerprint="deadbeef")
        with pytest.raises(ValueError, match="fingerprint"):
            SharedArtifactSegment.publish(direct_system.network, {"NR": artifact})

    def test_attach_maps_identical_csr(self, segment, direct_system):
        attached = SharedArtifactSegment.attach(segment.name)
        original = direct_system.network.ensure_csr()
        shared = attached.csr_graph()
        assert shared.buffer_backed
        assert list(shared.ids) == list(original.ids)
        assert list(shared.fwd_offsets) == list(original.fwd_offsets)
        assert list(shared.fwd_targets) == list(original.fwd_targets)
        assert list(shared.fwd_weights) == list(original.fwd_weights)
        assert list(shared.rev_offsets) == list(original.rev_offsets)
        # The attached snapshot builds the same tuple adjacency as the owned
        # one, element for element.
        assert len(shared.fwd_adj) == len(original.fwd_adj)
        assert all(a == b for a, b in zip(shared.fwd_adj, original.fwd_adj))
        assert len(shared.rev_adj) == len(original.rev_adj)
        assert all(a == b for a, b in zip(shared.rev_adj, original.rev_adj))
        adjacency = (shared.fwd_adj, shared.rev_adj)
        # The views must be released before the mapping can unmap; the
        # materialized tuples hold plain values, not exports into it.
        del shared
        assert attached.close() is True
        assert adjacency[0] == original.fwd_adj

    def test_restored_network_adopts_the_shared_snapshot(self, segment, direct_system):
        attached = SharedArtifactSegment.attach(segment.name)
        network = attached.restore_network()
        assert network.fingerprint() == direct_system.network.fingerprint()
        assert network.ensure_csr() is not None
        assert network.ensure_csr().buffer_backed
        del network
        assert attached.close() is True

    def test_contiguous_ids_map_through_a_range_index(self, segment, direct_system):
        from repro.network.csr import _RangeIndex

        attached = SharedArtifactSegment.attach(segment.name)
        owned = direct_system.network.ensure_csr()
        shared = attached.csr_graph()
        assert isinstance(shared.index_of, _RangeIndex)
        probes = list(owned.ids) + [-1, owned.ids[-1] + 1, "x"]
        assert [shared.index_of.get(p) for p in probes] == [
            owned.index_of.get(p) for p in probes
        ]
        assert all(shared.index_of[i] == owned.index_of[i] for i in owned.ids)
        del shared
        assert attached.close() is True

    def test_restored_network_is_buffer_backed_and_reads_alike(self, direct_system):
        from repro.network.graph import RoadNetwork

        # Ids added out of ascending order: the segment carries the order.
        original = RoadNetwork(name="shuffled")
        for node in reversed(list(direct_system.network.nodes())):
            original.add_node(node.node_id, node.x, node.y)
        for edge in direct_system.network.edges():
            original.add_edge(edge.source, edge.target, edge.weight)
        published = SharedArtifactSegment.publish(original, {})
        attached = SharedArtifactSegment.attach(published.name)
        try:
            network = attached.restore_network()
            assert network.name == "shuffled"
            csr = network.ensure_csr()
            assert csr.buffer_backed and isinstance(csr.fwd_targets, memoryview)
            x, y, order = network.node_arrays()
            assert all(isinstance(a, memoryview) for a in (x, y, order))
            del csr, x, y, order
            assert network.node_ids() == original.node_ids()
            assert list(network.edges()) == list(original.edges())
            assert list(network.nodes()) == list(original.nodes())
            assert network.fingerprint() == original.fingerprint()
            del network
            assert attached.close() is True
        finally:
            published.unlink()
            published.close()

    def test_carried_fingerprint_equals_a_fresh_rehash(self, segment, direct_system):
        """The restored network takes the directory's fingerprint without
        hashing; a network over the same mapped arrays that hashes them
        lands on the same value."""
        from repro.network.graph import RoadNetwork

        attached = SharedArtifactSegment.attach(segment.name)
        network = attached.restore_network()
        assert network._fingerprint_cache == attached.fingerprint
        x, y, order = network.node_arrays()
        rehashed = RoadNetwork.from_arrays(
            attached.csr_graph(), x, y, name=network.name, order=order
        )
        assert rehashed._fingerprint_cache is None
        assert rehashed.fingerprint() == network.fingerprint()
        assert network.fingerprint() == direct_system.network.fingerprint()
        del network, rehashed, x, y, order
        assert attached.close() is True

    def test_artifact_lookup_and_miss(self, segment):
        attached = SharedArtifactSegment.attach(segment.name)
        artifact = attached.artifact("NR")
        assert artifact.scheme == "NR"
        with pytest.raises(KeyError, match="EB"):
            attached.artifact("EB")
        del artifact
        assert attached.close() is True

    def test_bad_magic_rejected(self, segment):
        from multiprocessing import shared_memory

        raw = shared_memory.SharedMemory(create=True, size=64)
        try:
            raw.buf[:4] = b"NOPE"
            with pytest.raises(ValueError, match="magic"):
                SharedArtifactSegment.attach(raw.name)
        finally:
            raw.close()
            raw.unlink()

    def test_close_and_unlink_are_idempotent(self, direct_system):
        scheme = direct_system.scheme("NR")
        published = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        published.unlink()
        published.unlink()
        assert published.close() is True
        assert published.close() is True
        with pytest.raises(ValueError, match="closed"):
            published.csr_graph()


# ----------------------------------------------------------------------
# Worker runtime (in-process)
# ----------------------------------------------------------------------
class TestWorkerRuntime:
    @pytest.fixture()
    def runtime(self, direct_system):
        scheme = direct_system.scheme("NR")
        segment = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        runtime = WorkerRuntime(0, config=BASE_CONFIG.experiment_config())
        runtime.load_segment(segment.name)
        yield runtime
        runtime.shutdown()
        segment.unlink()
        segment.close()

    def test_query_matches_the_direct_system(self, runtime, direct_system, query_pairs):
        for source, target in query_pairs:
            response = runtime.handle(
                {
                    "op": "query",
                    "method": "NR",
                    "source": source,
                    "target": target,
                    "tune_in_offset": 0,
                    "with_path": True,
                }
            )
            reference = _direct_result(direct_system, source, target)
            assert response["status"] == "ok"
            assert response["distance"] == reference.distance
            assert response["tuning_time_packets"] == reference.metrics.tuning_time_packets
            assert response["access_latency_packets"] == reference.metrics.access_latency_packets
            assert response["path"] == list(reference.path)

    def test_batch_matches_sequential_queries(self, runtime, direct_system, query_pairs):
        response = runtime.handle(
            {
                "op": "query_batch",
                "method": "NR",
                "queries": [list(pair) for pair in query_pairs],
                "tune_in_offset": 0,
            }
        )
        assert response["status"] == "ok"
        expected = [
            _direct_result(direct_system, source, target).distance
            for source, target in query_pairs
        ]
        assert response["distances"] == expected
        assert response["latency"]["count"] == len(query_pairs)

    def test_shutdown_unmaps_after_answering_queries(self, direct_system, query_pairs):
        scheme = direct_system.scheme("NR")
        published = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        runtime = WorkerRuntime(0, config=BASE_CONFIG.experiment_config())
        try:
            runtime.load_segment(published.name)
            for source, target in query_pairs:
                response = runtime.handle(
                    {"op": "query", "method": "NR", "source": source, "target": target}
                )
                assert response["status"] == "ok"
            snapshot = runtime.system.network.ensure_csr()
            # The queries left numpy views of the mapped buffers behind (the
            # kernel's scipy matrices); shutdown must still unmap.
            assert snapshot.buffer_backed and snapshot._accel is not None
            del snapshot
            segment = runtime.segment
            runtime.shutdown()
            assert segment.close() is True
        finally:
            runtime.shutdown()
            published.unlink()
            published.close()

    def test_bad_requests_answer_errors_without_dying(self, runtime):
        unknown = runtime.handle({"op": "frobnicate"})
        assert unknown["status"] == "error"
        bad_method = runtime.handle(
            {"op": "query", "method": "XYZ", "source": 0, "target": 1}
        )
        assert bad_method["status"] == "error"
        missing_field = runtime.handle({"op": "query", "method": "NR"})
        assert missing_field["status"] == "error"
        # Still serving afterwards.
        assert runtime.handle({"op": "ping"})["status"] == "ok"
        assert runtime.requests_served == 4

    def test_shared_snapshot_mutation_refused_with_republish_guidance(
        self, runtime, direct_system, query_pairs
    ):
        """Serving networks are immutable; the error says how to refresh.

        The worker's network maps a shared read-only segment.  A weight
        update must be refused *before* the dict state moves (otherwise
        network and snapshot would permanently disagree), the message must
        point at the re-publish workflow, and the worker must keep serving
        correct answers afterwards.
        """
        from repro.network.csr import ImmutableSnapshotError

        network = runtime.system.network
        source, target = None, None
        for node_id in network.node_ids():
            neighbors = network.neighbors(node_id)
            if neighbors:
                source, target = node_id, neighbors[0][0]
                break
        assert source is not None
        before = network.edge_weight(source, target)
        with pytest.raises(
            ImmutableSnapshotError,
            match="serving snapshots are immutable; refresh via re-publish",
        ) as excinfo:
            network.update_edge_weight(source, target, before + 1.0)
        assert isinstance(excinfo.value, TypeError)  # refused as a type contract
        assert network.edge_weight(source, target) == before  # nothing moved
        # Still serving, and still bit-identical to the direct system.
        query_source, query_target = query_pairs[0]
        response = runtime.handle(
            {
                "op": "query",
                "method": "NR",
                "source": query_source,
                "target": query_target,
                "tune_in_offset": 0,
            }
        )
        assert response["status"] == "ok"
        reference = _direct_result(direct_system, query_source, query_target)
        assert response["distance"] == reference.distance

    def test_fleet_scenario_validation(self, runtime):
        response = runtime.handle(
            {"op": "fleet", "method": "NR", "scenario": "no-such", "devices": 5}
        )
        assert response["status"] == "error"
        assert "no-such" in response["error"]

    def test_fleet_matches_direct_simulation(self, runtime, direct_system):
        from repro.experiments import FLEET_SCENARIOS

        response = runtime.handle(
            {"op": "fleet", "method": "NR", "scenario": "trickle", "devices": 8, "seed": 2}
        )
        assert response["status"] == "ok"
        devices = FLEET_SCENARIOS["trickle"](direct_system.network, 8, seed=2)
        run = direct_system.simulate_fleet("NR", devices, seed=2)
        assert response["devices"] == run.num_devices
        assert response["mismatches"] == run.mismatches
        assert response["replays"] == run.replays
        assert set(response["latency_percentiles"]) == {"50", "90", "99"}

    def test_info_reports_the_segment(self, runtime):
        response = runtime.handle({"op": "info"})
        assert response["status"] == "ok"
        assert response["schemes"] == ["NR"]
        assert response["segment_bytes"] > 0
        assert response["swaps"] == 0

    def test_swap_reloads_and_counts(self, runtime):
        name = runtime.segment.name
        response = runtime.handle({"op": "_swap", "segment": name})
        assert response["status"] == "ok"
        assert response["schemes"] == ["NR"]
        assert runtime.swaps == 1
        assert runtime.handle({"op": "info"})["swaps"] == 1

    def test_pacing_sleeps_proportionally_to_air_time(self, direct_system, monkeypatch):
        scheme = direct_system.scheme("NR")
        segment = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        runtime = WorkerRuntime(
            0, config=BASE_CONFIG.experiment_config(), pace_packet_us=5.0
        )
        try:
            runtime.load_segment(segment.name)
            slept = []
            monkeypatch.setattr(time, "sleep", slept.append)
            response = runtime.handle(
                {"op": "query", "method": "NR", "source": 0, "target": 1}
            )
            assert response["status"] == "ok"
            assert slept == [response["access_latency_packets"] * 5.0 / 1e6]
        finally:
            runtime.shutdown()
            segment.unlink()
            segment.close()

    def test_shutdown_is_idempotent(self, runtime):
        runtime.shutdown()
        runtime.shutdown()
        response = runtime.handle({"op": "query", "method": "NR", "source": 0, "target": 1})
        assert response["status"] == "error"
        assert "no segment" in response["error"]


# ----------------------------------------------------------------------
# End to end: daemon over a unix socket
# ----------------------------------------------------------------------
class TestServingEndToEnd:
    def test_ping_and_info(self, server):
        with ServingClient(server.address) as client:
            assert client.ping()["status"] == "ok"
            info = client.info()
        assert info["routing"] == "region"
        assert len(info["workers"]) == 2
        assert all(row["alive"] for row in info["workers"])
        assert info["segment_bytes"] > 0

    def test_served_queries_match_the_direct_system(
        self, server, direct_system, query_pairs
    ):
        with ServingClient(server.address) as client:
            for source, target in query_pairs:
                served = client.query("NR", source, target, tune_in_offset=0)
                reference = _direct_result(direct_system, source, target)
                assert served["distance"] == reference.distance
                assert served["found"] == reference.found
                assert served["tuning_time_packets"] == reference.metrics.tuning_time_packets
                assert (
                    served["access_latency_packets"]
                    == reference.metrics.access_latency_packets
                )

    def test_served_batch_matches_direct_batch(self, server, direct_system, query_pairs):
        with ServingClient(server.address) as client:
            served = client.query_batch("NR", query_pairs, tune_in_offset=0)
        options = direct_system.default_options.replace(tune_in_offset=0)
        run = direct_system.query_batch("NR", query_pairs, options=options)
        assert served["latency"]["count"] == len(query_pairs)
        expected = [
            _direct_result(direct_system, source, target).distance
            for source, target in query_pairs
        ]
        assert served["distances"] == expected
        assert served["latency"]["max"] == max(
            metrics.access_latency_packets for metrics in run.per_query
        )

    def test_served_fleet_matches_direct_signature(self, server, direct_system):
        from repro.experiments import FLEET_SCENARIOS

        with ServingClient(server.address) as client:
            served = client.fleet("NR", scenario="trickle", devices=15, seed=5)
        devices = FLEET_SCENARIOS["trickle"](direct_system.network, 15, seed=5)
        run = direct_system.simulate_fleet("NR", devices, seed=5)
        import hashlib

        expected_digest = hashlib.sha256(repr(run.signature()).encode("utf-8")).hexdigest()
        assert served["devices"] == 15
        assert served["mismatches"] == run.mismatches
        assert served["signature_digest"] == expected_digest

    def test_bad_requests_do_not_kill_workers(self, server):
        with ServingClient(server.address) as client:
            with pytest.raises(ServerError):
                client.query("XYZ", 0, 1)
            with pytest.raises(ServerError):
                client.fleet("NR", scenario="no-such")
            info = client.info()
        assert all(row["alive"] for row in info["workers"])
        assert info["respawns"] == 0

    def test_unknown_op_is_an_error_response(self, server):
        with ServingClient(server.address) as client:
            with pytest.raises(ServerError, match="unknown op"):
                client.call({"op": "frobnicate"})

    def test_load_generator_spreads_work(self, server, query_pairs):
        report = run_load(server.address, query_pairs * 4, concurrency=3)
        assert report.requests == len(query_pairs) * 4
        assert report.errors == 0
        assert report.qps > 0
        assert report.latency_ms["p50"] > 0
        assert sum(report.workers.values()) == report.requests

    def test_crash_is_detected_and_respawned_without_wrong_answers(
        self, server, direct_system, query_pairs
    ):
        with ServingClient(server.address) as client:
            before = client.info()
            client.crash_worker(0)
            deadline = time.time() + 20.0
            while time.time() < deadline:
                info = client.info()
                if info["respawns"] > before["respawns"] and all(
                    row["alive"] for row in info["workers"]
                ):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("crashed worker was not respawned in time")
            # Every worker answers correctly after the respawn (hit both).
            for source, target in query_pairs:
                served = client.query("NR", source, target, tune_in_offset=0)
                reference = _direct_result(direct_system, source, target)
                assert served["distance"] == reference.distance


# ----------------------------------------------------------------------
# TCP transport (the portable fallback when Unix sockets are unavailable)
# ----------------------------------------------------------------------
class TestTcpTransport:
    def test_serves_over_an_ephemeral_tcp_port(self, direct_system, query_pairs):
        config = dataclasses.replace(
            BASE_CONFIG, workers=1, port=0, routing="round_robin"
        )
        handle = ServerHandle.launch(config)
        try:
            kind, host, port = handle.address
            assert kind == "tcp" and port > 0
            with ServingClient(("tcp", host, port)) as client:
                client.ping()
                source, target = query_pairs[0]
                served = client.query("NR", source, target, tune_in_offset=0)
                reference = _direct_result(direct_system, source, target)
                assert served["distance"] == reference.distance
        finally:
            handle.stop()

    def test_unknown_address_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown address kind"):
            ServingClient(("carrier_pigeon", "nowhere"))


# ----------------------------------------------------------------------
# Backpressure (dedicated tiny daemon: one slow worker, queue depth 1)
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_full_queue_answers_busy_with_retry_advice(self, direct_system, query_pairs):
        config = ServeConfig(
            network="milan",
            scale=0.01,
            seed=3,
            regions=8,
            methods=("NR",),
            workers=1,
            max_pending=1,
            retry_after_ms=7.0,
            pace_packet_us=200.0,  # make each query take visible wall time
            routing="round_robin",
        )
        handle = ServerHandle.launch(config)
        try:
            busy_seen = []
            lock = threading.Lock()

            def slam(pairs):
                client = ServingClient(handle.address)
                try:
                    for source, target in pairs:
                        try:
                            client.query("NR", source, target, tune_in_offset=0)
                        except ServerBusy as busy:
                            with lock:
                                busy_seen.append(busy.retry_after_ms)
                finally:
                    client.close()

            threads = [
                threading.Thread(target=slam, args=(query_pairs * 3,))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert busy_seen, "a saturated one-deep queue never answered busy"
            assert all(advice == 7.0 for advice in busy_seen)
            # Polite clients that honour the advice eventually get through.
            report = run_load(handle.address, query_pairs, concurrency=2)
            assert report.errors == 0
            assert report.requests == len(query_pairs)
        finally:
            handle.stop()

    def test_retry_loop_bounded_under_sustained_backpressure(self, monkeypatch):
        """A persistently saturated server must surface ``ServerBusy``.

        The retry loop backs off exponentially (with jitter) from the
        server's advice and re-raises after ``max_retries`` rejections --
        it must never spin forever on a server that stays busy.
        """

        class AlwaysBusyClient(ServingClient):
            def __init__(self):  # no socket: every call is a rejection
                self.calls = 0

            def call(self, request):
                self.calls += 1
                raise ServerBusy(retry_after_ms=10.0)

        sleeps = []
        monkeypatch.setattr("repro.serving.client.time.sleep", sleeps.append)
        client = AlwaysBusyClient()
        with pytest.raises(ServerBusy):
            client.call_with_retry({"op": "ping"}, max_retries=12)

        # One initial attempt plus max_retries retries, then the re-raise.
        assert client.calls == 13
        assert len(sleeps) == 12
        advised, cap, jitter = 0.010, 0.25, 0.5
        for attempt, delay in enumerate(sleeps):
            base = min(advised * 1.5**attempt, cap)
            assert base * (1.0 - jitter) <= delay <= base * (1.0 + jitter)
        # The backoff actually grows to the cap region, and the jitter
        # actually randomizes (a busy herd must not retry in lockstep).
        assert sleeps[-1] > advised
        assert len(set(sleeps)) > 1


# ----------------------------------------------------------------------
# Refresh (dedicated daemon: the fingerprint changes mid-flight)
# ----------------------------------------------------------------------
class TestRefresh:
    def test_mid_flight_answers_are_old_or_new_never_torn(self, query_pairs):
        config = ServeConfig(
            network="milan",
            scale=0.01,
            seed=3,
            regions=8,
            methods=("NR",),
            workers=2,
            max_pending=16,
        )
        handle = ServerHandle.launch(config)
        reference = AirSystem.from_config(config.experiment_config())
        try:
            old_fingerprint = reference.network.fingerprint()
            edges = list(reference.network.edges())[:4]
            updates = [(e.source, e.target, e.weight * 1.7) for e in edges]

            fingerprints = set()
            errors = []
            stop_flag = threading.Event()

            def background_queries():
                client = ServingClient(handle.address)
                try:
                    while not stop_flag.is_set():
                        for source, target in query_pairs:
                            try:
                                served = client.query(
                                    "NR", source, target, tune_in_offset=0
                                )
                            except ServerBusy:
                                continue
                            fingerprints.add(served["fingerprint"])
                except Exception as exc:  # noqa: BLE001 - report in the test
                    errors.append(exc)
                finally:
                    client.close()

            thread = threading.Thread(target=background_queries)
            thread.start()
            time.sleep(0.2)
            with ServingClient(handle.address) as client:
                outcome = client.refresh(updates)
            time.sleep(0.3)
            stop_flag.set()
            thread.join(timeout=30.0)

            assert not errors, errors
            new_fingerprint = outcome["fingerprint"]
            assert new_fingerprint != old_fingerprint
            assert outcome["workers_swapped"] == 2
            assert outcome["num_changes"] == len(updates)
            # Every answer came off a published cycle: the old one or the
            # new one, never a half-swapped hybrid fingerprint.
            assert fingerprints <= {old_fingerprint, new_fingerprint}
            assert new_fingerprint in fingerprints

            # Post-refresh answers equal a direct system refreshed the same way.
            reference.apply_updates(updates)
            options = reference.default_options.replace(tune_in_offset=0)
            with ServingClient(handle.address) as client:
                for source, target in query_pairs[:5]:
                    served = client.query("NR", source, target, tune_in_offset=0)
                    expected = reference.query("NR", source, target, options=options)
                    assert served["distance"] == expected.distance
                    assert served["fingerprint"] == new_fingerprint
        finally:
            handle.stop()

    def test_invalid_batch_is_rejected_whole_without_degrading(self, query_pairs):
        config = ServeConfig(
            network="milan", scale=0.01, seed=3, regions=8, methods=("NR",), workers=1
        )
        handle = ServerHandle.launch(config)
        reference = AirSystem.from_config(config.experiment_config())
        try:
            edge = next(iter(reference.network.edges()))
            good = [edge.source, edge.target, edge.weight * 1.7]
            node = edge.source
            bad_batches = [
                [good, [node, node, 1.0]],  # no such edge
                [good, [edge.source, edge.target, 0.0]],
                [good, [edge.source, edge.target, -3.0]],
                [good, [edge.source, edge.target, float("nan")]],
                [good, [edge.source, edge.target, float("inf")]],
                [good, [edge.source, edge.target]],  # two fields
                [good, "not an update"],
            ]
            with ServingClient(handle.address) as client:
                before = client.info()
                for batch in bad_batches:
                    write_frame(client._sock, {"op": "refresh", "updates": batch})
                    reply = read_frame(client._sock)
                    assert reply["status"] == "error", (batch, reply)
                    assert reply["index"] == 1
                    assert reply["error"].startswith("update 1: ")
                    info = client.info()
                    assert info["generation"] == before["generation"]
                    assert info["fingerprint"] == before["fingerprint"]
                    assert info["stale"] is False
                    assert info["refresh_failures"] == 0
                with pytest.raises(ServerError, match="update 1: no edge"):
                    client.refresh([tuple(good), (node, node, 1.0)])
                write_frame(client._sock, {"op": "refresh", "updates": {"a": 1}})
                assert read_frame(client._sock)["status"] == "error"
                source, target = query_pairs[0]
                served = client.query("NR", source, target, tune_in_offset=0)
                assert "stale" not in served
                assert served["fingerprint"] == before["fingerprint"]

                # The server's network never saw the good half of a rejected
                # batch: a valid refresh carries exactly its own change.
                outcome = client.refresh([tuple(good)])
                assert "degraded" not in outcome
                assert outcome["num_changes"] == 1
                reference.apply_updates([tuple(good)])
                assert outcome["fingerprint"] == reference.network.fingerprint()
        finally:
            handle.stop()

    def test_double_shutdown_is_a_noop(self):
        config = ServeConfig(
            network="milan", scale=0.01, seed=3, regions=8, methods=("NR",), workers=1
        )
        handle = ServerHandle.launch(config)
        with ServingClient(handle.address) as client:
            assert client.shutdown()["status"] == "ok"
        handle.stop()
        handle.stop()  # second stop: no error, nothing left to do
        assert handle.server.workers == []
