"""The serving daemon: asyncio front end over a pool of worker processes.

:class:`AirServer` owns the build side -- one :class:`AirSystem` (with the
optional :class:`~repro.store.ArtifactStore` disk tier for warm starts)
builds every configured scheme once, publishes the result as a
:class:`~repro.serving.shm.SharedArtifactSegment`, and spawns N worker
processes that map the segment zero-copy.  The front end accepts framed
JSON requests (:mod:`repro.serving.protocol`) over a Unix or TCP socket
and forwards serving ops (``query`` / ``query_batch`` / ``fleet``) to
workers over per-worker pipes.

Operational contract:

* **Backpressure.**  Each worker has a bounded in-flight window
  (``max_pending``); when every worker is full, a request is answered
  ``busy`` with retry advice instead of queuing unboundedly.
* **Routing.**  Requests go round-robin over the pool and spill to the
  least-loaded worker when the next one is saturated; every worker maps
  the whole segment, so any worker answers any query.
* **Refresh.**  ``refresh`` applies an edge-weight batch to the network,
  refreshes it through :meth:`AirSystem.refresh` (incremental rebuilds +
  store re-publication), publishes a *new* segment, and sends each worker a
  swap message through its request pipe.  Pipes are FIFO, so every
  request enqueued before the swap is answered on the old cycle and
  everything after on the new one -- answers are old-or-new, never torn.
  The old segment is unlinked once every worker has acknowledged.
* **Crash safety.**  A liveness monitor respawns dead workers and
  re-dispatches their un-answered requests to the replacement, so a crash
  costs latency, never a wrong answer.  The same monitor evicts *hung*
  workers -- a pending request older than ``hang_timeout_s`` or a missed
  heartbeat probe gets the worker SIGKILLed and respawned; its stuck
  requests are answered with a typed error (never replayed, in case the
  request itself is the poison).
* **Deadlines.**  A request carrying ``deadline_ms`` is timed from the
  moment the server reads it: the absolute monotonic expiry travels to the
  worker (which refuses to start expired work) and the front end answers
  ``error_kind: deadline`` the instant the budget runs out, instead of
  holding the connection for an answer the client no longer wants.
* **Degraded refresh.**  A refresh whose rebuild or re-publication fails
  keeps the daemon serving the *previous* cycle: the old segment stays
  mapped, data responses carry ``"stale": true`` until a later refresh
  succeeds, and the refresh call reports ``degraded`` instead of erroring.
  A batch that fails validation (a missing edge, a non-positive or
  non-finite weight, a malformed update) is not a failed refresh: nothing
  is applied and the call answers ``error`` with the failing ``index``.
* **Fault injection.**  Named injection points (frame drop/truncate/
  corrupt, latency, worker SIGKILL mid-request) are threaded through the
  hot path behind :mod:`repro.faults` -- single ``None`` checks unless a
  chaos plan is installed via the ``chaos`` admin op.
* **Shutdown.**  ``stop()`` drains workers with an exit message, joins
  them, and releases the segment; it is idempotent (double shutdown is a
  no-op) and also runs on ``shutdown`` requests from clients.
"""

from __future__ import annotations

import asyncio
import ctypes
import dataclasses
import itertools
import multiprocessing
import os
import signal
import tempfile
import threading
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.system import AirSystem
from repro.experiments import ExperimentConfig
from repro.faults import runtime as faults
from repro.faults.plan import FaultPlan
from repro.network.delta import InvalidUpdateError
from repro.serving import protocol
from repro.serving.shm import (
    SegmentIntegrityError,
    SharedArtifactSegment,
    mapping_stats,
    process_rss_kb,
)
from repro.serving.worker import worker_main
from repro.store import ArtifactStore

__all__ = ["ServeConfig", "AirServer", "ServerHandle"]

#: Ops dispatched to workers; also the ops fault-injection and staleness
#: stamping apply to (admin/control ops must stay reliable under chaos).
_DATA_OPS = ("query", "query_batch", "fleet")


def _trim_heap() -> None:
    """Hand the allocator's free heap pages back to the OS before a fork.

    glibc trims its heap only when the free space at the top passes a
    threshold that grows with the largest block it has unmapped (up to
    32 MB), so whether the build's freed temporaries stay resident depends
    on where its last allocations happen to land.  Every forked worker
    inherits those pages.  On the mixed-1k daemon (1,010 nodes, six
    schemes) a layout shift from an unrelated code change left 9.6 MB of
    them, 3.2 MB of ``Pss`` in each of the three processes.  A no-op off
    glibc.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


@dataclass(frozen=True)
class ServeConfig:
    """Everything that shapes one serving daemon, in one picklable object."""

    #: Evaluation network (dataset name), scale and seed -- the same knobs
    #: as the CLI's common options, resolved through ``ExperimentConfig``.
    network: str = "milan"
    scale: float = 0.02
    seed: int = 3
    regions: int = 8
    landmarks: int = 8
    #: Schemes to build and serve (canonical names).
    methods: Tuple[str, ...] = ("NR",)
    #: Worker pool size.
    workers: int = 2
    #: Per-worker bound on in-flight requests; the backpressure knob.
    max_pending: int = 32
    #: Retry advice attached to ``busy`` responses.
    retry_after_ms: float = 25.0
    #: Emulated on-air microseconds per packet (see ``WorkerRuntime``).
    pace_packet_us: float = 0.0
    #: Unix socket path; auto-generated in the temp dir when ``None`` and
    #: no TCP port is given.
    socket_path: Optional[str] = None
    #: TCP fallback: set a port (0 = ephemeral) to listen on ``host``.
    port: Optional[int] = None
    host: str = "127.0.0.1"
    #: Optional artifact-store directory (warm starts + refresh publication).
    store_dir: Optional[str] = None
    #: Oldest-pending age (seconds) past which a live-but-silent worker is
    #: SIGKILLed and respawned (hang eviction).
    hang_timeout_s: float = 30.0
    #: Idle-worker heartbeat cadence: with no pending requests, a ping probe
    #: is dispatched this often so an idle-hung worker still ages past
    #: ``hang_timeout_s`` instead of playing dead forever.
    heartbeat_interval_s: float = 2.0

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig(
            network=self.network,
            scale=self.scale,
            seed=self.seed,
            eb_nr_regions=self.regions,
            arcflag_regions=self.regions,
            hiti_regions=self.regions,
            num_landmarks=self.landmarks,
        )


@dataclass
class _Worker:
    """Server-side handle of one worker process."""

    worker_id: int
    process: Any
    conn: Any
    #: request id -> (future, original request, dispatch time) in flight.
    pending: Dict[int, Tuple[asyncio.Future, Dict[str, Any], float]] = field(
        default_factory=dict
    )
    #: When the last idle heartbeat probe was dispatched (loop time).
    last_probe_at: float = 0.0

    @property
    def depth(self) -> int:
        return len(self.pending)

    def oldest_pending_age(self, now: float) -> float:
        """Age of the longest-waiting in-flight request, 0 when idle."""
        if not self.pending:
            return 0.0
        return now - min(entry[2] for entry in self.pending.values())


class AirServer:
    """Multi-process serving daemon (see module docstring)."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.system: Optional[AirSystem] = None
        self.segment: Optional[SharedArtifactSegment] = None
        self.workers: List[_Worker] = []
        self.address: Optional[Tuple] = None
        self.generation = 0
        self.respawns = 0
        self.busy_rejections = 0
        self.requests_dispatched = 0
        self.hang_evictions = 0
        self.deadline_rejections = 0
        self.refresh_failures = 0
        #: Degraded mode: a failed refresh keeps the old cycle serving with
        #: this flag set; data responses carry ``"stale": true`` until a
        #: later refresh succeeds.
        self.stale = False
        self.degraded_reason: Optional[str] = None
        #: Recent worker recoveries: ``{worker, detected, restored, mttr_s}``
        #: with loop-time stamps; bounded to the last 64 entries.
        self.respawn_log: List[Dict[str, Any]] = []
        # Workers fork: they warm-start in milliseconds off the server's
        # state, and ``_trim_heap`` shapes what that fork inherits.
        self._mp = multiprocessing.get_context("fork")
        self._server: Optional[asyncio.base_events.Server] = None
        self._request_ids = itertools.count(1)
        self._round_robin = itertools.count()
        self._monitor_task: Optional[asyncio.Task] = None
        self._admin_lock: Optional[asyncio.Lock] = None
        self._stopped_event: Optional[asyncio.Event] = None
        self._started = False
        self._stopping = False

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    async def start(self) -> Tuple:
        """Build, publish, spawn the pool and start listening.

        Returns the listening address: ``("unix", path)`` or
        ``("tcp", host, port)``.
        """
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._admin_lock = asyncio.Lock()
        self._stopped_event = asyncio.Event()

        store = ArtifactStore(self.config.store_dir) if self.config.store_dir else None
        self.system = AirSystem.from_config(self.config.experiment_config(), store=store)
        self.segment = self._publish_segment()

        loop = asyncio.get_running_loop()
        for worker_id in range(self.config.workers):
            self.workers.append(await self._spawn(worker_id))
        self._monitor_task = loop.create_task(self._monitor())

        if self.config.port is not None:
            self._server = await asyncio.start_server(
                self._serve_connection, host=self.config.host, port=self.config.port
            )
            port = self._server.sockets[0].getsockname()[1]
            self.address = ("tcp", self.config.host, port)
        else:
            path = self.config.socket_path or os.path.join(
                tempfile.gettempdir(), f"repro-serve-{uuid.uuid4().hex[:12]}.sock"
            )
            self._server = await asyncio.start_unix_server(
                self._serve_connection, path=path
            )
            self.address = ("unix", path)
        return self.address

    def _publish_segment(self) -> SharedArtifactSegment:
        """Build every configured scheme and publish one segment.

        Inside the engine's publication, a scheme whose build or refresh
        already wrote its artifact to the store hands the segment that same
        artifact instead of encoding it again; the segment keeps its
        serving form (see :mod:`repro.serving.shm`).
        """
        assert self.system is not None
        with self.system.publication():
            artifacts = {name: self.system.artifact(name) for name in self.config.methods}
        self.generation += 1
        return SharedArtifactSegment.publish(self.system.network, artifacts)

    async def _spawn(self, worker_id: int) -> _Worker:
        """Start one worker process and wait for its warm-start handshake."""
        assert self.segment is not None
        parent_conn, child_conn = self._mp.Pipe(duplex=True)
        _trim_heap()
        process = self._mp.Process(
            target=worker_main,
            args=(
                child_conn,
                worker_id,
                self.segment.name,
                self.config.experiment_config(),
                self.config.pace_packet_us,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        loop = asyncio.get_running_loop()
        ready = loop.create_future()
        worker = _Worker(worker_id=worker_id, process=process, conn=parent_conn)
        loop.add_reader(
            parent_conn.fileno(), self._drain_worker, worker, ready
        )
        await asyncio.wait_for(ready, timeout=120.0)
        return worker

    # ------------------------------------------------------------------
    # Worker pipe plumbing
    # ------------------------------------------------------------------
    def _drain_worker(self, worker: _Worker, ready: Optional[asyncio.Future]) -> None:
        """Reader callback: resolve futures for every buffered response."""
        try:
            while worker.conn.poll():
                message = worker.conn.recv()
                if message.get("op") == "_ready":
                    if ready is not None and not ready.done():
                        ready.set_result(True)
                    continue
                entry = worker.pending.pop(message.pop("id", None), None)
                if entry is not None and not entry[0].done():
                    entry[0].set_result(message)
        except (EOFError, OSError):
            # Worker died mid-pipe; the liveness monitor owns recovery.
            try:
                asyncio.get_running_loop().remove_reader(worker.conn.fileno())
            except (OSError, ValueError):
                pass

    def _submit(self, worker: _Worker, request: Dict[str, Any]) -> asyncio.Future:
        """Send one request down a worker's pipe, tracked by a future."""
        loop = asyncio.get_running_loop()
        request_id = next(self._request_ids)
        future = loop.create_future()
        worker.pending[request_id] = (future, request, loop.time())
        self.requests_dispatched += 1
        try:
            worker.conn.send({**request, "id": request_id})
        except (BrokenPipeError, OSError):
            pass  # dead worker: the monitor re-dispatches the pending entry
        return future

    def _pick_worker(self) -> Optional[_Worker]:
        """The next worker with queue capacity; ``None`` = busy."""
        if not self.workers:
            return None
        preferred = self.workers[next(self._round_robin) % len(self.workers)]
        if preferred.depth < self.config.max_pending:
            return preferred
        # Saturated: spill to the least-loaded worker with room.
        fallback = min(self.workers, key=lambda worker: worker.depth)
        if fallback.depth < self.config.max_pending:
            return fallback
        return None

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        worker = self._pick_worker()
        if worker is None:
            self.busy_rejections += 1
            return {
                "status": "busy",
                "retry_after_ms": self.config.retry_after_ms,
            }
        loop = asyncio.get_running_loop()
        deadline_at: Optional[float] = None
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is not None:
            # Absolute monotonic expiry: loop.time() is CLOCK_MONOTONIC,
            # comparable across forked workers on Linux, so the worker can
            # refuse to start work the client already abandoned.
            deadline_at = loop.time() + float(deadline_ms) / 1000.0
            request = {**request, "deadline_at": deadline_at}
        future = self._submit(worker, request)
        kill = faults.inject("serving.worker.kill", op=request.get("op"))
        if kill is not None:
            # SIGKILL the worker with this request in flight: the monitor
            # must detect, respawn and replay for the answer to ever arrive.
            try:
                os.kill(worker.process.pid, signal.SIGKILL)
            except (ProcessLookupError, TypeError):  # pragma: no cover - race
                pass
        if deadline_at is None:
            response = await future
        else:
            try:
                response = await asyncio.wait_for(
                    future, timeout=max(deadline_at - loop.time(), 0.0)
                )
            except asyncio.TimeoutError:
                # The cancelled future stays in ``pending``; the drain and
                # replay paths skip done futures, so a late worker answer is
                # discarded instead of resurrecting the request.
                self.deadline_rejections += 1
                return {
                    "status": "error",
                    "error": f"deadline of {float(deadline_ms):.0f} ms expired",
                    "error_kind": "deadline",
                }
        if self.stale and response.get("status") == "ok":
            response = {**response, "stale": True}
        return response

    # ------------------------------------------------------------------
    # Liveness monitor and respawn
    # ------------------------------------------------------------------
    async def _monitor(self) -> None:
        """Liveness loop: respawn the dead, evict the hung, probe the idle.

        Dead workers (process gone) are respawned and their un-answered
        requests replayed on the replacement.  *Hung* workers -- alive but
        silent past ``hang_timeout_s`` on their oldest in-flight request --
        are SIGKILLed with their pendings answered by a typed
        ``worker_evicted`` error and **not** replayed: a request that hangs
        one worker must not be given the chance to hang its replacement.
        Idle workers get a heartbeat ping every ``heartbeat_interval_s`` so
        an idle-hung worker accumulates a pending probe and ages into
        eviction like any other hang.
        """
        loop = asyncio.get_running_loop()
        while not self._stopping:
            await asyncio.sleep(0.15)
            for index, worker in enumerate(list(self.workers)):
                if self._stopping:
                    break
                if worker.process.is_alive():
                    now = loop.time()
                    if worker.pending:
                        if worker.oldest_pending_age(now) > self.config.hang_timeout_s:
                            self._evict(worker)
                    elif now - worker.last_probe_at > self.config.heartbeat_interval_s:
                        worker.last_probe_at = now
                        self._submit(worker, {"op": "ping", "_probe": True})
                    continue
                detected = loop.time()
                self.respawns += 1
                replacement = await self._respawn(worker)
                if replacement is None:
                    continue
                restored = loop.time()
                self.respawn_log.append(
                    {
                        "worker": worker.worker_id,
                        "detected": detected,
                        "restored": restored,
                        "mttr_s": restored - detected,
                    }
                )
                del self.respawn_log[:-64]
                self.workers[index] = replacement
                for future, request, _dispatched in worker.pending.values():
                    if future.done():
                        continue
                    if request.get("op") == "_crash":
                        future.set_result(
                            {"status": "ok", "note": "worker crashed as requested"}
                        )
                    else:
                        # Replay on the replacement: the request never got an
                        # answer, so re-running it cannot double-serve.
                        self._relay(request, future, replacement)
                worker.pending.clear()

    def _evict(self, worker: _Worker) -> None:
        """SIGKILL a hung worker; answer (don't replay) its stuck requests."""
        self.hang_evictions += 1
        for future, _request, _dispatched in worker.pending.values():
            if not future.done():
                future.set_result(
                    {
                        "status": "error",
                        "error": f"worker {worker.worker_id} evicted "
                        f"(hung past {self.config.hang_timeout_s:.0f}s)",
                        "error_kind": "worker_evicted",
                    }
                )
        worker.pending.clear()
        try:
            os.kill(worker.process.pid, signal.SIGKILL)
        except (ProcessLookupError, TypeError):  # pragma: no cover - race
            pass
        # The next monitor pass sees the dead process and respawns it.

    def _relay(
        self, request: Dict[str, Any], future: asyncio.Future, worker: _Worker
    ) -> None:
        replay = self._submit(worker, request)

        def _forward(done: asyncio.Future) -> None:
            if future.done():
                return
            if done.cancelled():
                future.cancel()
            else:
                future.set_result(done.result())

        replay.add_done_callback(_forward)

    async def _respawn(self, worker: _Worker) -> Optional[_Worker]:
        loop = asyncio.get_running_loop()
        try:
            loop.remove_reader(worker.conn.fileno())
        except (OSError, ValueError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        try:
            return await self._spawn(worker.worker_id)
        except (OSError, asyncio.TimeoutError):  # pragma: no cover - spawn failure
            return None

    # ------------------------------------------------------------------
    # Refresh (cycle re-publication)
    # ------------------------------------------------------------------
    async def _refresh(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Apply weight updates, publish a new segment, swap every worker.

        The expensive part -- repairing the schemes through the engine's
        :meth:`~repro.engine.system.AirSystem.refresh` and packing the new
        shared segment -- runs *off* the event loop, in an executor thread:
        the asyncio front end keeps accepting and dispatching queries against
        the old segment for the whole rebuild, and only the final per-worker
        swap round-trip (microseconds of pipe traffic per worker) happens on
        the loop.  Queries therefore never stall behind a refresh; they
        simply keep seeing the pre-update network until the swap.
        """
        assert self.system is not None and self._admin_lock is not None
        updates = request.get("updates", [])
        if not isinstance(updates, list):
            return {"status": "error", "error": "updates must be a list"}
        async with self._admin_lock:
            loop = asyncio.get_running_loop()

            def _rebuild():
                with self.system.publication():
                    self.system.network.apply_updates(updates)
                    report = self.system.refresh()
                    return report, self._publish_segment()

            try:
                report, new_segment = await loop.run_in_executor(None, _rebuild)
            except InvalidUpdateError as exc:
                # Rejected before any update was applied: the network, the
                # published segment and the staleness flag are untouched.
                return {"status": "error", "error": str(exc), "index": exc.index}
            except Exception as exc:
                # Degrade, don't die: the old segment keeps serving (the
                # engine left the network delta uncleared, so the *next*
                # refresh rebuilds from the cumulative updates), and data
                # responses carry the staleness flag until one succeeds.
                return self._degrade(f"{type(exc).__name__}: {exc}")
            try:
                new_segment.verify()
            except SegmentIntegrityError as exc:
                new_segment.unlink()
                new_segment.close()
                return self._degrade(str(exc))
            old_segment, self.segment = self.segment, new_segment
            # The swap bypasses the backpressure bound: FIFO pipes guarantee
            # queued requests finish on the old cycle first, and a full
            # queue must delay -- not skip -- the re-publication.
            swaps = [
                self._submit(worker, {"op": "_swap", "segment": self.segment.name})
                for worker in self.workers
            ]
            results = await asyncio.gather(*swaps, return_exceptions=True)
            if old_segment is not None:
                old_segment.unlink()
                old_segment.close()
            swapped = sum(
                1
                for result in results
                if isinstance(result, dict) and result.get("status") == "ok"
            )
            self.stale = False
            self.degraded_reason = None
            return {
                "status": "ok",
                "fingerprint": self.system.network.fingerprint(),
                "parent_fingerprint": report.parent_fingerprint,
                "generation": self.generation,
                "workers_swapped": swapped,
                "incremental": list(report.incremental),
                "rebuilt": list(report.rebuilt),
                "num_changes": report.num_changes,
            }

    def _degrade(self, reason: str) -> Dict[str, Any]:
        """Enter degraded mode after a failed refresh: old cycle, flagged."""
        self.stale = True
        self.degraded_reason = reason
        self.refresh_failures += 1
        return {
            "status": "ok",
            "degraded": True,
            "stale": True,
            "error": reason,
            "fingerprint": self.segment.fingerprint if self.segment else None,
            "generation": self.generation,
            "workers_swapped": 0,
        }

    # ------------------------------------------------------------------
    # Front end
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await protocol.read_frame_async(reader)
                except protocol.ProtocolError:
                    break
                if request is None:
                    break
                response = await self._handle_request(request)
                frame = protocol.encode_frame(response)
                closing = False
                if faults.active() is not None and request.get("op") in _DATA_OPS:
                    frame, closing, dropped = await self._damage_frame(frame)
                    if dropped:
                        continue
                writer.write(frame)
                await writer.drain()
                if closing or request.get("op") == "shutdown":
                    break
        except ConnectionError:  # pragma: no cover - client vanished
            pass
        finally:
            writer.close()

    async def _damage_frame(self, frame: bytes) -> Tuple[bytes, bool, bool]:
        """Apply protocol-layer fault points to one outgoing data frame.

        Returns ``(frame, close_after_write, drop)``.  Only data-path
        responses are damaged (``_DATA_OPS``): admin and chaos-control ops
        must stay reachable under any plan, or a chaos run could never be
        stopped.  ``drop`` swallows the response entirely (client deadline
        territory); ``truncate`` writes a half frame then closes (the
        client's mid-frame ``ProtocolError``); ``corrupt`` flips the first
        payload byte, guaranteeing a JSON parse failure rather than a
        silently-altered answer.
        """
        latency = faults.inject("serving.latency_ms")
        if latency is not None:
            await asyncio.sleep(float(latency.param("latency_ms", 25.0)) / 1000.0)
        if faults.inject("serving.frame.drop") is not None:
            return frame, False, True
        if faults.inject("serving.frame.truncate") is not None:
            return frame[: max(5, len(frame) // 2)], True, False
        if faults.inject("serving.frame.corrupt") is not None:
            damaged = bytearray(frame)
            damaged[4] ^= 0xFF
            return bytes(damaged), False, False
        return frame, False, False

    async def _handle_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op in _DATA_OPS:
            return await self._dispatch(request)
        if op == "ping":
            return {"status": "ok", "generation": self.generation}
        if op == "info":
            return self._info()
        if op == "refresh":
            return await self._refresh(request)
        if op == "chaos":
            return await self._chaos(request)
        if op == "crash_worker":
            return self._crash_worker(request)
        if op == "shutdown":
            asyncio.get_running_loop().create_task(self.stop())
            return {"status": "ok", "stopping": True}
        return {"status": "error", "error": f"unknown op {op!r}"}

    async def _chaos(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Admin op: install/clear/inspect a fault plan, server *and* workers.

        Install parses the JSON plan once here (a malformed plan is rejected
        before anything changes) and forwards the raw dict to every worker,
        each of which builds its own instance -- same seed, private clock,
        so per-worker decision streams are deterministic.  Workers forked
        *after* an install (respawns) inherit the server plan through fork.
        """
        action = request.get("action", "install")
        if action == "stats":
            plan = faults.active()
            return {"status": "ok", "faults": plan.stats() if plan else {}}
        if action == "install":
            plan_dict = request.get("plan") or {}
            try:
                plan = FaultPlan.from_dict(plan_dict)
            except (KeyError, TypeError, ValueError) as exc:
                return {"status": "error", "error": f"bad fault plan: {exc}"}
            faults.install(plan)
            forward: Dict[str, Any] = {
                "op": "_chaos",
                "action": "install",
                "plan": plan_dict,
            }
        elif action == "clear":
            faults.clear()
            forward = {"op": "_chaos", "action": "clear"}
        else:
            return {"status": "error", "error": f"unknown chaos action {action!r}"}
        acks = await asyncio.gather(
            *(self._submit(worker, forward) for worker in self.workers),
            return_exceptions=True,
        )
        applied = sum(
            1
            for ack in acks
            if isinstance(ack, dict) and ack.get("status") == "ok"
        )
        return {"status": "ok", "action": action, "workers_applied": applied}

    def _crash_worker(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Diagnostic op: kill one worker abruptly (crash-recovery drills)."""
        index = int(request.get("worker", 0)) % max(1, len(self.workers))
        worker = self.workers[index]
        try:
            worker.conn.send({"op": "_crash"})
        except (BrokenPipeError, OSError):
            pass
        return {"status": "ok", "worker": worker.worker_id}

    def _info(self) -> Dict[str, Any]:
        assert self.segment is not None
        worker_rows = []
        for worker in self.workers:
            pid = worker.process.pid
            row: Dict[str, Any] = {
                "worker": worker.worker_id,
                "pid": pid,
                "alive": worker.process.is_alive(),
                "pending": worker.depth,
            }
            rss = process_rss_kb(pid)
            if rss is not None:
                row["rss_kb"] = rss
            stats = mapping_stats(pid, self.segment.name)
            if stats is not None:
                row["segment_mapping"] = stats
            worker_rows.append(row)
        plan = faults.active()
        return {
            "status": "ok",
            "generation": self.generation,
            "fingerprint": self.segment.fingerprint,
            "segment": self.segment.name,
            "segment_bytes": self.segment.size_bytes,
            "methods": list(self.config.methods),
            "max_pending": self.config.max_pending,
            "requests_dispatched": self.requests_dispatched,
            "busy_rejections": self.busy_rejections,
            "respawns": self.respawns,
            "respawn_log": list(self.respawn_log),
            "hang_evictions": self.hang_evictions,
            "deadline_rejections": self.deadline_rejections,
            "refresh_failures": self.refresh_failures,
            "stale": self.stale,
            "degraded_reason": self.degraded_reason,
            "faults": plan.stats() if plan is not None else None,
            "workers": worker_rows,
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def stop(self) -> None:
        """Drain and stop everything; safe to call any number of times."""
        if self._stopping:
            if self._stopped_event is not None:
                await self._stopped_event.wait()
            return
        self._stopping = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        for worker in self.workers:
            try:
                loop.remove_reader(worker.conn.fileno())
            except (OSError, ValueError):
                pass
            try:
                worker.conn.send({"op": "_exit"})
            except (BrokenPipeError, OSError):
                pass
        for worker in self.workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - hung worker
                worker.process.terminate()
                worker.process.join(timeout=2.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self.workers.clear()
        if self.segment is not None:
            self.segment.unlink()
            self.segment.close()
        if self.address is not None and self.address[0] == "unix":
            try:
                os.unlink(self.address[1])
            except OSError:
                pass
        if self._stopped_event is not None:
            self._stopped_event.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed."""
        assert self._stopped_event is not None
        await self._stopped_event.wait()


class ServerHandle:
    """A server running on its own thread/event loop (tests, benchmarks).

    ``ServerHandle.launch(config)`` blocks until the daemon accepts
    connections and returns a handle whose :attr:`address` feeds a
    :class:`~repro.serving.client.ServingClient`; :meth:`stop` shuts the
    daemon down and joins the thread (idempotent).
    """

    def __init__(self, config: ServeConfig) -> None:
        self._config = config
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[AirServer] = None
        self.address: Optional[Tuple] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @classmethod
    def launch(cls, config: ServeConfig, timeout: float = 180.0) -> "ServerHandle":
        handle = cls(config)
        handle._thread.start()
        if not handle._ready.wait(timeout):
            raise TimeoutError("serving daemon did not start in time")
        if handle._failure is not None:
            raise RuntimeError("serving daemon failed to start") from handle._failure
        return handle

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._server = AirServer(self._config)
        try:
            self.address = await self._server.start()
        except BaseException as exc:  # startup failure must unblock launch()
            self._failure = exc
            self._ready.set()
            return
        self._ready.set()
        await self._server.wait_stopped()

    @property
    def server(self) -> AirServer:
        assert self._server is not None
        return self._server

    def stop(self, timeout: float = 60.0) -> None:
        if self._loop is not None and self._server is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(self._server.stop(), self._loop)
            try:
                future.result(timeout)
            except (asyncio.TimeoutError, TimeoutError):  # pragma: no cover
                pass
        self._thread.join(timeout)
