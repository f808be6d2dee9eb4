"""Serving worker: warm-starts from a shared segment and answers requests.

The logic lives in :class:`WorkerRuntime`, a plain object the tests drive
in-process; :func:`worker_main` is only the thin blocking loop the child
process runs around it (receive request dict, handle, send response dict).
Requests travel over a :class:`multiprocessing.connection.Connection` in
FIFO order, which is what makes the refresh swap atomic from a client's
point of view: every request queued before the swap message is answered on
the old cycle, everything after on the new one -- never a mixture.

A runtime answers with the same objects a direct
:class:`~repro.engine.system.AirSystem` call would produce: it *is* an
``AirSystem`` over the restored network, with the restored schemes
pre-seeded into its cycle cache through :meth:`AirSystem.restore`, under
exactly the keys the system's own lookups compute.  Bit-identity with the
build process is therefore by construction, not by parallel implementation.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.air.base import ClientOptions
from repro.engine.system import AirSystem
from repro.faults import runtime as faults
from repro.faults.plan import FaultPlan
from repro.serving.shm import SharedArtifactSegment
from repro.stats import summarize_latencies

__all__ = ["WorkerRuntime", "worker_main"]


class WorkerRuntime:
    """One worker's state machine: a shared-segment-backed ``AirSystem``.

    Parameters
    ----------
    worker_id:
        Stable identifier, echoed in every response (tests and the load
        generator use it to observe routing and respawns).
    config:
        The serve-time experiment configuration.  Must resolve each
        scheme's parameters to the values the segment's artifacts were
        built with, so that the system's own cache-key computation lands on
        the pre-seeded entries.
    pace_packet_us:
        Emulated on-air channel time per packet, in microseconds.  After
        computing a query the worker sleeps ``access_latency_packets *
        pace_packet_us`` -- the broadcast model's latency is air time, not
        CPU, and pacing reproduces that service time in a wall-clock
        benchmark.  ``0`` (the default) disables pacing.
    """

    def __init__(
        self,
        worker_id: int,
        config: Any = None,
        pace_packet_us: float = 0.0,
    ) -> None:
        self.worker_id = worker_id
        self.config = config
        self.pace_packet_us = pace_packet_us
        self.segment: Optional[SharedArtifactSegment] = None
        self.system: Optional[AirSystem] = None
        self.requests_served = 0
        self.swaps = 0

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------
    def load_segment(self, segment_name: str) -> Dict[str, Any]:
        """Attach a published segment and (re)build the serving system.

        Used both for the initial warm start and for refresh swaps; the old
        segment (if any) is released afterwards, so during a swap the two
        mappings coexist only for the microseconds the exchange takes.

        The attached segment is integrity-checked *before* anything is
        restored from it: a corrupted publication -- payload or directory
        fingerprint -- raises :class:`~repro.serving.shm.SegmentIntegrityError`
        and leaves the worker serving its previous segment untouched.  The
        restored network then takes the verified fingerprint as published.
        """
        segment = SharedArtifactSegment.attach(segment_name)
        try:
            segment.verify()
            network = segment.restore_network()
            system = AirSystem(network, config=self.config)
            for name in segment.scheme_names:
                system.restore(segment.artifact(name))
        except Exception:
            segment.close()
            raise
        previous = self.segment
        self.segment, self.system = segment, system
        if previous is not None:
            self.swaps += 1
            previous.close()
        return {
            "fingerprint": segment.fingerprint,
            "schemes": segment.scheme_names,
        }

    def shutdown(self) -> None:
        """Release the mapping (idempotent)."""
        self.system = None
        if self.segment is not None:
            segment, self.segment = self.segment, None
            segment.close()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Process one request dict into one response dict (never raises).

        A failing request -- unknown op, unknown node, scheme not in the
        segment -- produces ``status: error`` and leaves the worker
        serving; only a genuine crash (tested via the ``_crash`` op, which
        :func:`worker_main` implements) takes the process down.

        Requests may carry ``deadline_at`` -- an absolute
        ``time.monotonic()`` instant set by the server from the client's
        ``deadline_ms`` budget (``CLOCK_MONOTONIC`` is process-shared on
        Linux).  A request that reaches the worker already expired is
        answered with a ``deadline`` error instead of burning compute on an
        answer nobody is waiting for.
        """
        op = request.get("op")
        try:
            deadline_at = request.get("deadline_at")
            if deadline_at is not None and time.monotonic() > float(deadline_at):
                self.requests_served += 1
                return {
                    "status": "error",
                    "error": "deadline expired before the worker started",
                    "error_kind": "deadline",
                    "worker": self.worker_id,
                }
            hang = faults.inject("worker.hang_ms", op=op)
            if hang is not None:
                time.sleep(float(hang.param("hang_ms", 60_000.0)) / 1000.0)
            if op == "ping":
                response: Dict[str, Any] = {"status": "ok"}
            elif op == "info":
                response = self._info()
            elif op == "query":
                response = self._query(request)
            elif op == "query_batch":
                response = self._query_batch(request)
            elif op == "fleet":
                response = self._fleet(request)
            elif op == "_swap":
                response = {"status": "ok", **self.load_segment(request["segment"])}
            elif op == "_chaos":
                response = self._chaos(request)
            else:
                response = {"status": "error", "error": f"unknown op {op!r}"}
        except Exception as exc:  # a bad request must not kill the worker
            response = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
        response.setdefault(
            "fingerprint", self.segment.fingerprint if self.segment else None
        )
        response["worker"] = self.worker_id
        self.requests_served += 1
        return response

    def _require_system(self) -> AirSystem:
        if self.system is None:
            raise RuntimeError("worker has no segment loaded")
        return self.system

    def _options(self, request: Dict[str, Any]) -> ClientOptions:
        options = self._require_system().default_options
        offset = request.get("tune_in_offset")
        if offset is not None:
            options = options.replace(tune_in_offset=int(offset))
        return options

    def _pace(self, access_latency_packets: float) -> None:
        if self.pace_packet_us > 0.0:
            time.sleep(access_latency_packets * self.pace_packet_us / 1e6)

    def _chaos(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Install or clear this worker's copy of a fault plan.

        Each worker evaluates its own plan instance (same seed, private
        clock), so per-worker fault streams are deterministic regardless of
        how the server spreads requests across the pool.
        """
        action = request.get("action", "install")
        if action == "install":
            faults.install(FaultPlan.from_dict(request.get("plan") or {}))
        elif action == "clear":
            faults.clear()
        else:
            raise ValueError(f"unknown chaos action {action!r}")
        return {"status": "ok", "action": action}

    def _info(self) -> Dict[str, Any]:
        segment = self.segment
        return {
            "status": "ok",
            "requests_served": self.requests_served,
            "swaps": self.swaps,
            "segment": segment.name if segment else None,
            "segment_bytes": segment.size_bytes if segment else 0,
            "schemes": segment.scheme_names if segment else [],
        }

    def _query(self, request: Dict[str, Any]) -> Dict[str, Any]:
        system = self._require_system()
        result = system.query(
            request["method"],
            int(request["source"]),
            int(request["target"]),
            options=self._options(request),
        )
        self._pace(result.metrics.access_latency_packets)
        response = {
            "status": "ok",
            "distance": result.distance,
            "found": result.found,
            "tuning_time_packets": result.metrics.tuning_time_packets,
            "access_latency_packets": result.metrics.access_latency_packets,
            "peak_memory_bytes": result.metrics.peak_memory_bytes,
            "lost_packets": result.metrics.lost_packets,
        }
        if request.get("with_path"):
            response["path"] = list(result.path)
        return response

    def _query_batch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """A whole workload, mirroring :func:`engine.system.execute_workload`.

        Sessions are drawn from a fresh seeded channel sequentially in
        workload order -- the exact recipe of the engine's batch runner --
        so the distances and metrics equal a direct
        :meth:`AirSystem.query_batch` call over the same pairs.
        """
        system = self._require_system()
        options = self._options(request)
        name = request["method"]
        pairs = [(int(s), int(t)) for s, t in request["queries"]]
        scheme = system.scheme(name)
        channel = scheme.channel(loss_rate=options.loss_rate, seed=options.loss_seed)
        client = scheme.client(options=options)
        sessions = [channel.session(options.tune_in_offset) for _ in pairs]
        distances: List[float] = []
        latencies: List[float] = []
        tunings: List[float] = []
        total_latency = 0.0
        for (source, target), session in zip(pairs, sessions):
            result = client.query(source, target, session=session)
            distances.append(result.distance)
            latencies.append(float(result.metrics.access_latency_packets))
            tunings.append(float(result.metrics.tuning_time_packets))
            total_latency += result.metrics.access_latency_packets
        self._pace(total_latency)
        return {
            "status": "ok",
            "distances": distances,
            "latency": summarize_latencies(latencies),
            "tuning": summarize_latencies(tunings),
        }

    def _fleet(self, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.experiments import FLEET_SCENARIOS

        system = self._require_system()
        scenario = request.get("scenario", "trickle")
        generator = FLEET_SCENARIOS.get(scenario)
        if generator is None:
            raise ValueError(
                f"unknown fleet scenario {scenario!r} "
                f"(available: {', '.join(sorted(FLEET_SCENARIOS))})"
            )
        devices = generator(
            system.network,
            int(request.get("devices", 100)),
            seed=int(request.get("seed", 0)),
            loss_rate=float(request.get("loss_rate", 0.0)),
        )
        run = system.simulate_fleet(
            request["method"], devices, seed=int(request.get("seed", 0))
        )
        self._pace(run.mean("access_latency_packets") * run.num_devices)
        return {
            "status": "ok",
            "devices": run.num_devices,
            "mismatches": run.mismatches,
            "replays": run.replays,
            "natives": run.natives,
            "latency_percentiles": {
                str(int(q)): v for q, v in run.latency_percentiles().items()
            },
            "tuning_percentiles": {
                str(int(q)): v for q, v in run.tuning_percentiles().items()
            },
            "signature_digest": _signature_digest(run),
        }


def _signature_digest(run) -> str:
    """Stable digest of a fleet run's deterministic per-device fields."""
    import hashlib

    return hashlib.sha256(repr(run.signature()).encode("utf-8")).hexdigest()


def worker_main(
    conn,
    worker_id: int,
    segment_name: str,
    config: Any = None,
    pace_packet_us: float = 0.0,
) -> None:  # pragma: no cover - runs in the child process
    """Blocking request loop of one worker process.

    Protocol over ``conn`` (dicts, FIFO): serving ops are delegated to
    :class:`WorkerRuntime`; ``_exit`` answers then leaves cleanly;
    ``_crash`` dies instantly without answering (crash-detection tests).
    Any id accompanying a request is echoed back so the server can match
    responses to futures.
    """
    import os

    runtime = WorkerRuntime(worker_id, config=config, pace_packet_us=pace_packet_us)
    runtime.load_segment(segment_name)
    conn.send({"status": "ok", "op": "_ready", "worker": worker_id})
    while True:
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        op = request.get("op")
        if op == "_crash":
            os._exit(17)
        if op == "_exit":
            runtime.shutdown()
            response = {"status": "ok", "worker": worker_id}
            if "id" in request:
                response["id"] = request["id"]
            conn.send(response)
            break
        response = runtime.handle(request)
        if "id" in request:
            response["id"] = request["id"]
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            break
    runtime.shutdown()
    conn.close()
