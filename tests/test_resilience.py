"""End-to-end resilience tests: the serving path under injected failure.

Complements :mod:`test_serving` (the happy path) and :mod:`test_faults`
(plan mechanics).  Everything here drives a *failure* through the stack and
pins down the recovery contract:

* a half-written or abandoned response frame surfaces as a typed
  ``ProtocolError``/``DeadlineExceeded`` within the socket timeout -- the
  client never hangs on a dying server;
* the circuit breaker trips on transport failures, rejects instantly while
  open, and re-closes through a single half-open probe;
* end-to-end deadlines propagate to workers (expired requests are refused
  server-side) and surface client-side as ``DeadlineExceeded``;
* a worker hung mid-request is evicted within ``hang_timeout_s`` and
  respawned, answering its stuck requests with a typed error;
* a refresh that fails mid-rebuild degrades instead of dying: the old
  cycle keeps serving bit-identical answers flagged ``stale`` until a
  later refresh succeeds with the *cumulative* updates;
* a tampered shared segment is refused at attach time and never serves;
* the ``run_chaos`` driver measures all of the above against a live
  daemon without a single identity violation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import socket
import threading
import time

import pytest

from repro.engine.system import AirSystem
from repro.faults import FaultPlan, FaultSpec, build_scenario
from repro.faults import runtime as fault_runtime
from repro.faults.chaos import run_chaos
from repro.serving import (
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceeded,
    ProtocolError,
    SegmentIntegrityError,
    ServeConfig,
    ServerError,
    ServerHandle,
    ServingClient,
    SharedArtifactSegment,
)
from repro.serialize.codec import decode_value, encode_value
from repro.serving import shm as shm_module
from repro.serving.protocol import encode_frame, read_frame
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
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """In-process injection tests must never leak a plan to later tests."""
    fault_runtime.clear()
    yield
    fault_runtime.clear()


@pytest.fixture(scope="module")
def direct_system():
    """Read-only reference system; never apply updates to this instance."""
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


def _direct_distance(system, source, target):
    options = system.default_options.replace(tune_in_offset=0)
    return system.query("NR", source, target, options=options).distance


def _install(client, plan):
    return client.call(
        {"op": "chaos", "action": "install", "plan": plan.to_dict()}
    )


def _clear(client):
    return client.call({"op": "chaos", "action": "clear"})


# ----------------------------------------------------------------------
# The client never hangs on a misbehaving server
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _fake_server(behavior):
    """A one-connection TCP peer whose response behaviour we script.

    ``behavior(conn)`` runs in a thread after accept; the connection is
    held open until the context exits (so "stall forever" behaviours do
    not accidentally EOF early when the function returns).
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    release = threading.Event()

    def serve():
        try:
            conn, _peer = listener.accept()
        except OSError:  # listener closed before any connection arrived
            return
        try:
            behavior(conn)
            release.wait(timeout=10.0)
        finally:
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    try:
        yield ("tcp", host, port)
    finally:
        release.set()
        listener.close()
        thread.join(timeout=10.0)


class TestClientNeverHangs:
    def test_half_written_frame_is_a_typed_error_within_timeout(self):
        """Regression: a server that stalls mid-frame must not hang reads.

        The peer sends the length prefix plus a few payload bytes and then
        goes silent.  A blocking read without the mid-frame guard would sit
        in ``recv`` forever; the contract is a typed ``ProtocolError`` no
        later than the socket timeout.
        """

        def half_frame(conn):
            read_frame(conn)
            frame = encode_frame({"status": "ok"})
            conn.sendall(frame[:7])  # 4-byte prefix + 3 payload bytes

        with _fake_server(half_frame) as address:
            client = ServingClient(address, timeout=0.5)
            try:
                started = time.monotonic()
                with pytest.raises(ProtocolError, match="mid-frame"):
                    client.ping()
                assert time.monotonic() - started < 5.0
            finally:
                client.close()

    def test_server_dying_mid_frame_is_a_typed_error_immediately(self):
        def dies_mid_frame(conn):
            read_frame(conn)
            frame = encode_frame({"status": "ok"})
            conn.sendall(frame[: len(frame) - 2])
            conn.shutdown(socket.SHUT_WR)

        with _fake_server(dies_mid_frame) as address:
            client = ServingClient(address, timeout=5.0)
            try:
                started = time.monotonic()
                with pytest.raises(ProtocolError, match="mid-frame"):
                    client.ping()
                # EOF, not timeout: the error is immediate.
                assert time.monotonic() - started < 2.0
            finally:
                client.close()

    def test_silent_server_honours_the_request_deadline(self):
        def silent(conn):
            read_frame(conn)  # swallow the request, never answer

        with _fake_server(silent) as address:
            client = ServingClient(address, timeout=120.0)
            try:
                started = time.monotonic()
                with pytest.raises(DeadlineExceeded):
                    client.call({"op": "ping"}, deadline_ms=250.0)
                # The 120 s connection timeout did not apply: the per-call
                # deadline capped the wait.
                assert time.monotonic() - started < 3.0
            finally:
                client.close()


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after_s=0.0)

    def test_trips_after_threshold_and_rejects_with_retry_advice(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_after_s=10.0, clock=clock)
        for _ in range(2):
            breaker.before_call()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.before_call()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 1
        clock.now = 4.0
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.before_call()
        assert excinfo.value.retry_after_s == pytest.approx(6.0)
        assert breaker.rejections == 1

    def test_success_resets_the_consecutive_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_after_s=10.0, clock=_FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=1.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.now = 1.5
        breaker.before_call()  # the probe is admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN
        with pytest.raises(CircuitOpenError):
            breaker.before_call()  # concurrent caller rejected while probing
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.before_call()  # closed again: calls flow

    def test_failed_probe_reopens_and_restarts_the_cooldown(self):
        clock = _FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=1.0, clock=clock)
        breaker.record_failure()
        clock.now = 1.5
        breaker.before_call()
        breaker.record_failure()  # the probe failed
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.trips == 2
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.before_call()
        assert excinfo.value.retry_after_s == pytest.approx(1.0)

    def test_breaker_opens_against_a_dead_server_and_stops_touching_the_wire(self):
        """Integration: transport failures trip it, then calls fail instantly."""

        def slam(conn):
            conn.close()  # accept, then drop the connection on the floor

        with _fake_server(slam) as address:
            breaker = CircuitBreaker(failure_threshold=3, reset_after_s=60.0)
            client = ServingClient(address, timeout=2.0, breaker=breaker)
            try:
                for _ in range(3):
                    with pytest.raises(ProtocolError):
                        client.ping()
                assert breaker.state == CircuitBreaker.OPEN
                started = time.monotonic()
                with pytest.raises(CircuitOpenError):
                    client.ping()
                # Rejected from memory, not by a socket timeout.
                assert time.monotonic() - started < 0.5
                assert breaker.trips == 1
                assert breaker.rejections == 1
            finally:
                client.close()


# ----------------------------------------------------------------------
# End-to-end deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_worker_refuses_an_already_expired_request(self):
        runtime = WorkerRuntime(0)
        response = runtime.handle(
            {"op": "ping", "deadline_at": time.monotonic() - 1.0}
        )
        assert response["status"] == "error"
        assert response["error_kind"] == "deadline"
        # Without a deadline the same op answers fine (no segment needed).
        assert runtime.handle({"op": "ping"})["status"] == "ok"

    def test_live_daemon_deadline_exceeded_and_clean_recovery(
        self, server, direct_system, query_pairs
    ):
        """A hung worker burns the budget; the client gets a typed timeout.

        The late answer (the worker wakes after the server already gave up)
        must be discarded, not delivered to a later request.
        """
        source, target = query_pairs[0]
        plan = FaultPlan(
            [FaultSpec("worker.hang_ms", times=1, params={"hang_ms": 600})],
            seed=0,
        )
        try:
            with ServingClient(server.address) as client:
                before = client.info()["deadline_rejections"]
                assert _install(client, plan)["workers_applied"] == 2
                with pytest.raises(DeadlineExceeded):
                    client.call(
                        {
                            "op": "query",
                            "method": "NR",
                            "source": source,
                            "target": target,
                            "tune_in_offset": 0,
                        },
                        deadline_ms=150.0,
                    )
        finally:
            # A deadline abandons the exchange mid-flight: the server's own
            # (late) deadline error frame may still land on this socket, so
            # the connection is desynchronized -- reconnect, exactly as the
            # chaos driver does.  The clear waits for worker acks, draining
            # the hung worker before anything else is asserted.
            with ServingClient(server.address) as admin:
                _clear(admin)
        with ServingClient(server.address) as client:
            info = client.info()
            assert info["deadline_rejections"] >= before + 1
            served = client.query("NR", source, target, tune_in_offset=0)
            assert served["distance"] == _direct_distance(
                direct_system, source, target
            )
            assert "stale" not in served


# ----------------------------------------------------------------------
# Hang eviction
# ----------------------------------------------------------------------
class TestHangEviction:
    def test_hung_worker_is_evicted_respawned_and_service_restored(
        self, direct_system, query_pairs
    ):
        config = dataclasses.replace(
            BASE_CONFIG, workers=1, hang_timeout_s=0.5, heartbeat_interval_s=60.0
        )
        handle = ServerHandle.launch(config)
        try:
            source, target = query_pairs[0]
            plan = FaultPlan(
                [FaultSpec("worker.hang_ms", times=1, params={"hang_ms": 120_000})],
                seed=0,
            )
            with ServingClient(handle.address) as client:
                _install(client, plan)
                started = time.monotonic()
                with pytest.raises(ServerError, match="evicted"):
                    client.query("NR", source, target, tune_in_offset=0)
                # Detection is bounded by hang_timeout_s plus monitor slack,
                # not by the 2-minute hang.
                assert time.monotonic() - started < 5.0
                # The clear replays onto the respawned worker, so once it
                # returns the replacement is live and plan-free.
                _clear(client)
                info = client.info()
                assert info["hang_evictions"] == 1
                assert info["respawns"] >= 1
                assert all(row["alive"] for row in info["workers"])
                served = client.query("NR", source, target, tune_in_offset=0)
                assert served["distance"] == _direct_distance(
                    direct_system, source, target
                )
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Degraded refresh (stale-but-serving)
# ----------------------------------------------------------------------
class TestDegradedRefresh:
    def test_failed_refresh_keeps_serving_old_cycle_then_recovers(self, query_pairs):
        handle = ServerHandle.launch(BASE_CONFIG)
        reference = AirSystem.from_config(BASE_CONFIG.experiment_config())
        try:
            old_fingerprint = reference.network.fingerprint()
            edges = list(reference.network.edges())[:8]
            first_updates = [
                (e.source, e.target, e.weight * 1.7) for e in edges[:4]
            ]
            second_updates = [
                (e.source, e.target, e.weight * 1.9) for e in edges[4:]
            ]
            with ServingClient(handle.address) as client:
                _install(
                    client,
                    FaultPlan([FaultSpec("engine.refresh.fail", times=1)], seed=0),
                )
                outcome = client.refresh(first_updates)
                assert outcome["degraded"] is True
                assert outcome["stale"] is True
                assert outcome["workers_swapped"] == 0
                assert outcome["fingerprint"] == old_fingerprint
                assert "FaultInjected" in outcome["error"]

                # Degraded mode: the old cycle serves, flagged stale, still
                # bit-identical to the pre-update reference.
                for source, target in query_pairs[:5]:
                    served = client.query("NR", source, target, tune_in_offset=0)
                    assert served["stale"] is True
                    assert served["fingerprint"] == old_fingerprint
                    assert served["distance"] == _direct_distance(
                        reference, source, target
                    )
                info = client.info()
                assert info["stale"] is True
                assert info["refresh_failures"] == 1
                assert info["degraded_reason"]

                # Recovery: the next refresh rebuilds from the *cumulative*
                # updates (the failed batch was never dropped).
                _clear(client)
                outcome = client.refresh(second_updates)
                assert "degraded" not in outcome
                assert outcome["workers_swapped"] == 2
                assert outcome["num_changes"] == len(first_updates) + len(
                    second_updates
                )
                reference.apply_updates(first_updates)
                reference.apply_updates(second_updates)
                new_fingerprint = reference.network.fingerprint()
                assert outcome["fingerprint"] == new_fingerprint
                assert new_fingerprint != old_fingerprint

                for source, target in query_pairs[:5]:
                    served = client.query("NR", source, target, tune_in_offset=0)
                    assert "stale" not in served
                    assert served["fingerprint"] == new_fingerprint
                    assert served["distance"] == _direct_distance(
                        reference, source, target
                    )
                info = client.info()
                assert info["stale"] is False
                assert info["degraded_reason"] is None
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Segment integrity
# ----------------------------------------------------------------------
class TestSegmentIntegrity:
    def test_tampered_segment_fails_verification(self, direct_system):
        scheme = direct_system.scheme("NR")
        fault_runtime.install(
            FaultPlan([FaultSpec("shm.segment.tamper", times=1)], seed=0)
        )
        segment = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        fault_runtime.clear()
        try:
            with pytest.raises(SegmentIntegrityError):
                segment.verify()
        finally:
            segment.unlink()
            segment.close()

    def test_worker_keeps_old_segment_when_the_swap_target_is_corrupt(
        self, direct_system, query_pairs
    ):
        scheme = direct_system.scheme("NR")
        good = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        fault_runtime.install(
            FaultPlan([FaultSpec("shm.segment.tamper", times=1)], seed=0)
        )
        bad = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        fault_runtime.clear()
        runtime = WorkerRuntime(0, config=BASE_CONFIG.experiment_config())
        try:
            runtime.load_segment(good.name)
            old_fingerprint = runtime.segment.fingerprint

            response = runtime.handle({"op": "_swap", "segment": bad.name})
            assert response["status"] == "error"
            assert "SegmentIntegrityError" in response["error"]

            # The failed swap left the previous mapping serving.
            assert runtime.segment.fingerprint == old_fingerprint
            assert runtime.swaps == 0
            source, target = query_pairs[0]
            served = runtime.handle(
                {
                    "op": "query",
                    "method": "NR",
                    "source": source,
                    "target": target,
                    "tune_in_offset": 0,
                }
            )
            assert served["status"] == "ok"
            assert served["distance"] == _direct_distance(
                direct_system, source, target
            )
        finally:
            runtime.shutdown()
            for segment in (good, bad):
                segment.unlink()
                segment.close()

    def test_rewritten_fingerprint_fails_verification(self, direct_system, query_pairs):
        """The checksum covers the directory's fingerprint, which workers
        take without re-hashing: a segment whose fingerprint was rewritten
        fails ``verify()``, and a worker swapping to it keeps its previous
        segment."""
        scheme = direct_system.scheme("NR")
        good = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        forged = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        fingerprint = forged.fingerprint
        _rewrite_directory(forged, fingerprint=fingerprint[::-1])
        try:
            attached = SharedArtifactSegment.attach(forged.name)
            try:
                assert attached.fingerprint == fingerprint[::-1] != fingerprint
                with pytest.raises(SegmentIntegrityError):
                    attached.verify()
            finally:
                attached.close()
            _assert_swap_refused(direct_system, query_pairs, good, forged)
        finally:
            for segment in (good, forged):
                segment.unlink()
                segment.close()

    def test_segment_without_checksum_fails_verification(
        self, direct_system, query_pairs
    ):
        """A directory whose checksum is blank is damaged: ``verify()``
        raises, and a worker swapping to it keeps its previous segment."""
        scheme = direct_system.scheme("NR")
        good = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        blank = SharedArtifactSegment.publish(
            direct_system.network, {"NR": scheme.artifact()}
        )
        _rewrite_directory(blank, payload_sha256="")
        try:
            attached = SharedArtifactSegment.attach(blank.name)
            try:
                assert attached._directory["payload_sha256"] == ""
                with pytest.raises(SegmentIntegrityError, match="no payload checksum"):
                    attached.verify()
            finally:
                attached.close()
            _assert_swap_refused(direct_system, query_pairs, good, blank)
        finally:
            for segment in (good, blank):
                segment.unlink()
                segment.close()


def _assert_swap_refused(system, query_pairs, good, damaged) -> None:
    """A worker serving ``good`` refuses to swap to ``damaged`` and keeps
    answering from ``good``."""
    runtime = WorkerRuntime(0, config=BASE_CONFIG.experiment_config())
    try:
        runtime.load_segment(good.name)
        with pytest.raises(SegmentIntegrityError):
            runtime.load_segment(damaged.name)
        assert runtime.segment.name == good.name
        assert runtime.swaps == 0
        source, target = query_pairs[0]
        served = runtime.handle(
            {
                "op": "query",
                "method": "NR",
                "source": source,
                "target": target,
                "tune_in_offset": 0,
            }
        )
        assert served["status"] == "ok"
        assert served["fingerprint"] == good.fingerprint
        assert served["distance"] == _direct_distance(system, source, target)
    finally:
        runtime.shutdown()


def _rewrite_directory(segment: SharedArtifactSegment, **entries) -> None:
    """Rewrite ``segment``'s directory in place with ``entries`` replaced,
    padded (when it encodes shorter) by a filler entry to its encoded length
    so every section stays where it was."""
    buf = segment._shm.buf
    header = len(shm_module._MAGIC) + shm_module._DIR_LEN.size
    (length,) = shm_module._DIR_LEN.unpack_from(buf, len(shm_module._MAGIC))
    directory = {**decode_value(bytes(buf[header : header + length])), **entries}
    padded = [directory] + [{**directory, "filler": "x" * n} for n in range(length)]
    raw = next(raw for raw in map(encode_value, padded) if len(raw) == length)
    buf[header : header + length] = raw


# ----------------------------------------------------------------------
# The chaos driver end to end
# ----------------------------------------------------------------------
class TestChaosDriver:
    def test_smoke_scenario_recovers_with_zero_identity_violations(
        self, direct_system, query_pairs
    ):
        handle = ServerHandle.launch(BASE_CONFIG)
        try:
            pairs = (query_pairs * 6)[:60]
            old_fingerprint = direct_system.network.fingerprint()
            table = {
                (source, target): _direct_distance(direct_system, source, target)
                for source, target in set(pairs)
            }

            def reference(fingerprint, source, target):
                if fingerprint != old_fingerprint:
                    return None  # refreshed cycle: no precomputed truth
                return table.get((source, target))

            edges = list(direct_system.network.edges())[:4]
            updates = [(e.source, e.target, e.weight * 1.7) for e in edges]

            report = run_chaos(
                handle.address,
                build_scenario("smoke", seed=7),
                pairs,
                method="NR",
                concurrency=4,
                deadline_ms=5000.0,
                refreshes=[updates],
                reference=reference,
            )

            assert report.requests == len(pairs)
            assert report.identity_violations == 0
            assert report.availability >= 0.8
            # The smoke plan kills workers mid-request; the monitor must
            # have respawned them, quickly.
            assert report.respawns >= 1
            assert report.mttr_s is not None and report.mttr_s < 5.0
            assert report.fault_stats.get("total_fired", 0) >= 1
            # The single refresh hit engine.refresh.fail: degraded, and the
            # staleness flag reached the clients.
            assert report.refreshes and report.refreshes[0]["degraded"]
            assert report.stale_responses > 0

            # The run cleans up after itself: plan cleared, workers alive.
            with ServingClient(handle.address) as client:
                info = client.info()
                assert info["faults"] is None
                assert all(row["alive"] for row in info["workers"])
        finally:
            handle.stop()
