"""Blocking client and load generator for the serving daemon.

:class:`ServingClient` is the synchronous counterpart of the asyncio
server: one socket, framed JSON requests, errors surfaced as exceptions
(:func:`~repro.serving.protocol.raise_for_status`).  It is what the tests,
the CLI ``bench-client`` entry point and the benchmark drive.

:func:`run_load` is the one load driver: it spreads a fixed list of
source/target pairs over ``concurrency`` reconnecting client connections,
gives every request one end-to-end deadline budget, honours ``busy``
backpressure with the server's own retry advice, optionally fires refresh
batches mid-run, checks every answer's bit identity and reports typed
outcomes, throughput and latency percentiles as a :class:`LoadReport`.
``repro bench-client``, the serving benchmark and the chaos driver
(:func:`~repro.faults.chaos.run_chaos`) all go through it.

Failure semantics (the client side of the resilience contract):

* every socket wait is bounded -- a dead or hung server surfaces within
  ``timeout`` as a typed exception, never as an indefinite block;
* a timeout waiting for a response to *start* raises
  :class:`~repro.serving.protocol.DeadlineExceeded`; a peer that dies or
  stalls *mid-frame* raises the ``ConnectionError``-derived
  :class:`~repro.serving.protocol.ProtocolError`;
* per-call ``deadline_ms`` both caps the socket wait and travels in the
  request, so the server stops burning worker time on requests whose
  client already gave up;
* an optional :class:`~repro.serving.breaker.CircuitBreaker` fails calls
  in microseconds while the daemon is down instead of burning a timeout
  per attempt, and re-probes on its half-open schedule.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.serving import protocol
from repro.serving.breaker import CircuitBreaker
from repro.stats import percentile

__all__ = ["LoadReport", "Reference", "ServingClient", "run_load"]

#: Accepted address shapes: a Unix socket path, ``("unix", path)`` or
#: ``("tcp", host, port)`` -- the latter two being exactly what
#: :meth:`AirServer.start` returns.
Address = Union[str, Tuple]


def _connect(address: Address, timeout: Optional[float]) -> socket.socket:
    if isinstance(address, str):
        address = ("unix", address)
    kind = address[0]
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        if timeout is not None:
            sock.settimeout(timeout)
        try:
            sock.connect(address[1])
        except OSError:
            sock.close()
            raise
    elif kind == "tcp":
        sock = socket.create_connection((address[1], address[2]), timeout=timeout)
    else:
        raise ValueError(f"unknown address kind {kind!r}")
    return sock


class ServingClient:
    """One blocking connection to an :class:`~repro.serving.server.AirServer`.

    ``timeout`` bounds every socket operation including the initial connect;
    ``breaker`` (optional) short-circuits calls while the daemon is known to
    be down -- transport failures trip it, any framed response (even ``busy``
    or ``error``) proves liveness and resets it.
    """

    def __init__(
        self,
        address: Address,
        timeout: Optional[float] = 120.0,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self._timeout = timeout
        self._breaker = breaker
        self._sock = _connect(address, timeout)

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    # ------------------------------------------------------------------
    # Request plumbing
    # ------------------------------------------------------------------
    def call(
        self, request: Dict[str, Any], deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """One raw request/response round trip; raises on non-``ok``.

        With ``deadline_ms``, the socket wait is capped at the deadline (in
        addition to the connection timeout) and the budget is stamped into
        the request so the server can propagate it to workers and stop
        spending compute on an abandoned request.  A response that fails to
        *start* within the budget raises
        :class:`~repro.serving.protocol.DeadlineExceeded`; one that starts
        and stalls raises :class:`~repro.serving.protocol.ProtocolError`.
        """
        if self._breaker is not None:
            self._breaker.before_call()
        restore_timeout = False
        try:
            if deadline_ms is not None:
                request = {**request, "deadline_ms": float(deadline_ms)}
                budget_s = max(deadline_ms, 0.0) / 1000.0
                if self._timeout is None or budget_s < self._timeout:
                    self._sock.settimeout(budget_s)
                    restore_timeout = True
            try:
                protocol.write_frame(self._sock, request)
                response = protocol.read_frame(self._sock)
            except protocol.ProtocolError:
                raise
            except TimeoutError:
                raise protocol.DeadlineExceeded(
                    f"no response within "
                    f"{deadline_ms if deadline_ms is not None else (self._timeout or 0) * 1000.0:.0f} ms"
                ) from None
            except OSError as exc:
                raise protocol.ProtocolError(f"transport failure: {exc}") from exc
            if response is None:
                raise protocol.ProtocolError("server closed the connection")
        except (protocol.ProtocolError, protocol.DeadlineExceeded):
            if self._breaker is not None:
                self._breaker.record_failure()
            raise
        finally:
            if restore_timeout:
                self._sock.settimeout(self._timeout)
        if self._breaker is not None:
            # Any framed response -- ok, busy or error -- proves the server
            # is alive; only transport failures count against the breaker.
            self._breaker.record_success()
        return protocol.raise_for_status(response)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self.call({"op": "ping"})

    def info(self) -> Dict[str, Any]:
        return self.call({"op": "info"})

    def query(
        self,
        method: str,
        source: int,
        target: int,
        tune_in_offset: Optional[int] = None,
        with_path: bool = False,
    ) -> Dict[str, Any]:
        request: Dict[str, Any] = {
            "op": "query",
            "method": method,
            "source": int(source),
            "target": int(target),
        }
        if tune_in_offset is not None:
            request["tune_in_offset"] = int(tune_in_offset)
        if with_path:
            request["with_path"] = True
        return self.call(request)

    def query_batch(
        self,
        method: str,
        queries: Sequence[Tuple[int, int]],
        tune_in_offset: Optional[int] = None,
    ) -> Dict[str, Any]:
        request: Dict[str, Any] = {
            "op": "query_batch",
            "method": method,
            "queries": [[int(s), int(t)] for s, t in queries],
        }
        if tune_in_offset is not None:
            request["tune_in_offset"] = int(tune_in_offset)
        return self.call(request)

    def fleet(
        self,
        method: str,
        scenario: str = "trickle",
        devices: int = 100,
        seed: int = 0,
        loss_rate: float = 0.0,
    ) -> Dict[str, Any]:
        return self.call(
            {
                "op": "fleet",
                "method": method,
                "scenario": scenario,
                "devices": int(devices),
                "seed": int(seed),
                "loss_rate": float(loss_rate),
            }
        )

    def refresh(self, updates: Iterable[Tuple[int, int, float]]) -> Dict[str, Any]:
        return self.call(
            {
                "op": "refresh",
                "updates": [[int(s), int(t), float(w)] for s, t, w in updates],
            }
        )

    def crash_worker(self, worker: int = 0) -> Dict[str, Any]:
        """Diagnostic: ask the server to kill one worker (recovery drills)."""
        return self.call({"op": "crash_worker", "worker": int(worker)})

    def shutdown(self) -> Dict[str, Any]:
        return self.call({"op": "shutdown"})


#: ``reference(fingerprint, source, target)`` returns the expected distance
#: for that cycle generation, or ``None`` when it has no opinion.
Reference = Callable[[str, int, int], Optional[float]]

#: A request's budget when the caller gives none: the bound a blocking
#: :class:`ServingClient` call has under its default ``timeout``.
DEFAULT_DEADLINE_MS = 120_000.0


@dataclass
class LoadReport:
    """What one :func:`run_load` burst measured, from the client's side of
    the socket; :func:`~repro.faults.chaos.run_chaos` adds the fault counts
    and the server's ``info``."""

    requests: int = 0
    ok: int = 0
    busy_retries: int = 0
    deadline_misses: int = 0
    reconnects: int = 0
    stale_responses: int = 0
    identity_violations: int = 0
    #: failed requests per outcome: ``deadline``, ``connect``,
    #: ``server_error`` or ``protocol``.
    errors: Dict[str, int] = field(default_factory=dict)
    duration_s: float = 0.0
    #: percentiles of the answered requests' wall time, retries included.
    latency_ms: Dict[str, float] = field(default_factory=dict)
    #: responses per worker id -- shows how the server spread the load.
    workers: Dict[str, int] = field(default_factory=dict)
    refreshes: List[Dict[str, Any]] = field(default_factory=list)
    fault_stats: Dict[str, Any] = field(default_factory=dict)
    server: Dict[str, Any] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        """Fraction of requests answered ``ok`` within their deadline."""
        return (self.ok / self.requests) if self.requests else 1.0

    @property
    def qps(self) -> float:
        return (self.ok / self.duration_s) if self.duration_s > 0 else 0.0

    @property
    def respawns(self) -> int:
        return int(self.server.get("respawns", 0))

    @property
    def mttr_s(self) -> Optional[float]:
        """Worst worker detection-to-restored time observed, seconds."""
        log = self.server.get("respawn_log") or []
        times = [entry["mttr_s"] for entry in log if "mttr_s" in entry]
        return max(times) if times else None


class _Recorder:
    """Thread-safe accumulation of per-request outcomes.

    Identity checking is two-layered: every answered distance is recorded
    under ``(fingerprint, source, target)`` and any disagreement between two
    answers for the same key is a violation (self-consistency -- catches
    torn reads and half-applied swaps); with a ``reference``, each answer is
    also compared against the ground truth for its fingerprint (catches a
    consistently wrong replica).
    """

    def __init__(self, reference: Optional[Reference]) -> None:
        self.lock = threading.Lock()
        self.report = LoadReport()
        self.reference = reference
        self.latencies: List[float] = []
        self._answers: Dict[Tuple[str, int, int], float] = {}

    def record_ok(
        self, response: Dict[str, Any], source: int, target: int, elapsed_ms: float
    ) -> None:
        fingerprint = str(response.get("fingerprint"))
        distance = response.get("distance")
        report = self.report
        with self.lock:
            report.requests += 1
            report.ok += 1
            self.latencies.append(elapsed_ms)
            if response.get("stale"):
                report.stale_responses += 1
            worker = str(response.get("worker"))
            report.workers[worker] = report.workers.get(worker, 0) + 1
            if distance is not None:
                key = (fingerprint, source, target)
                seen = self._answers.get(key)
                if seen is None:
                    self._answers[key] = float(distance)
                elif seen != float(distance):
                    report.identity_violations += 1
                if self.reference is not None:
                    expected = self.reference(fingerprint, source, target)
                    if expected is not None and float(distance) != float(expected):
                        report.identity_violations += 1

    def record_error(self, kind: str) -> None:
        with self.lock:
            self.report.requests += 1
            if kind == "deadline":
                self.report.deadline_misses += 1
            self.report.errors[kind] = self.report.errors.get(kind, 0) + 1

    def count(self, counter: str) -> None:
        with self.lock:
            setattr(self.report, counter, getattr(self.report, counter) + 1)

    def completed(self) -> int:
        with self.lock:
            return self.report.requests


def _drive(
    address: Address,
    batch: Sequence[Tuple[int, int]],
    method: str,
    tune_in_offset: Optional[int],
    deadline_ms: float,
    recorder: _Recorder,
) -> None:
    """One connection's share of the load, reconnecting as needed.

    Each request gets one ``deadline_ms`` budget, which busy waits (the
    server's ``retry_after_ms``), reconnects and protocol-error retries all
    spend.
    """
    client: Optional[ServingClient] = None

    def reconnect(deadline_at: float) -> Optional[ServingClient]:
        nonlocal client
        if client is not None:
            client.close()
            client = None
            recorder.count("reconnects")
        while time.perf_counter() < deadline_at:
            try:
                client = ServingClient(address, timeout=deadline_ms / 1000.0)
                return client
            except OSError:
                time.sleep(0.02)
        return None

    try:
        for source, target in batch:
            request: Dict[str, Any] = {
                "op": "query",
                "method": method,
                "source": int(source),
                "target": int(target),
            }
            if tune_in_offset is not None:
                request["tune_in_offset"] = int(tune_in_offset)
            started = time.perf_counter()
            deadline_at = started + deadline_ms / 1000.0
            outcome: Optional[str] = None
            while True:
                remaining_ms = (deadline_at - time.perf_counter()) * 1000.0
                if remaining_ms <= 0:
                    outcome = outcome or "deadline"
                    break
                if client is None and reconnect(deadline_at) is None:
                    outcome = "connect"
                    break
                try:
                    response = client.call(request, deadline_ms=remaining_ms)
                except protocol.ServerBusy as busy:
                    recorder.count("busy_retries")
                    time.sleep(min(busy.retry_after_ms, remaining_ms) / 1000.0)
                    continue
                except protocol.DeadlineExceeded:
                    # The connection may hold a late answer to *this* request;
                    # never reuse it for the next one.
                    client.close()
                    client = None
                    outcome = "deadline"
                    break
                except protocol.ServerError:
                    outcome = "server_error"
                    break
                except (protocol.ProtocolError, OSError):
                    # Torn/corrupt frame or dead server: reconnect and retry
                    # within the remaining deadline budget.
                    outcome = "protocol"
                    if reconnect(deadline_at) is None:
                        outcome = "connect"
                        break
                    continue
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                recorder.record_ok(response, int(source), int(target), elapsed_ms)
                outcome = None
                break
            if outcome is not None:
                recorder.record_error(outcome)
    finally:
        if client is not None:
            client.close()


def _fire_refreshes(
    address: Address,
    marks: Sequence[int],
    refreshes: Sequence[Sequence[Tuple[int, int, float]]],
    recorder: _Recorder,
) -> None:
    """Send each refresh batch once ``marks[i]`` requests have completed."""
    with ServingClient(address, timeout=600.0) as client:
        for mark, updates in zip(marks, refreshes):
            while recorder.completed() < mark:
                time.sleep(0.01)
            try:
                result = client.refresh(updates)
            except (protocol.ServerError, protocol.ProtocolError, OSError) as exc:
                result = {"status": "error", "error": str(exc)}
            with recorder.lock:
                recorder.report.refreshes.append(
                    {
                        "degraded": bool(result.get("degraded")),
                        "fingerprint": result.get("fingerprint"),
                        "workers_swapped": result.get("workers_swapped"),
                        "error": result.get("error"),
                    }
                )


def run_load(
    address: Address,
    pairs: Sequence[Tuple[int, int]],
    method: str = "NR",
    concurrency: int = 4,
    tune_in_offset: Optional[int] = 0,
    deadline_ms: float = DEFAULT_DEADLINE_MS,
    refreshes: Sequence[Sequence[Tuple[int, int, float]]] = (),
    reference: Optional[Reference] = None,
) -> LoadReport:
    """Drive ``pairs`` through the daemon from ``concurrency`` connections.

    Each connection works through its own slice of the pair list.  Every
    request carries one end-to-end ``deadline_ms`` budget: a ``busy``
    answer waits the server's advised interval, and a torn frame or a dead
    server reconnects and retries, both within that budget; when it runs
    out the request counts as a deadline miss.  A flaky daemon therefore
    costs typed errors in the report, never a hang or a silently truncated
    run.  Latencies are wall-clock per answered request, retries included.

    ``refreshes`` is a sequence of update batches fired from a dedicated
    admin connection at evenly spaced completion marks of the run.  Every
    answer goes through the identity check (see :class:`_Recorder`),
    against ``reference`` too when one is given.
    """
    recorder = _Recorder(reference)
    concurrency = max(1, min(concurrency, len(pairs) or 1))
    drivers = [
        threading.Thread(
            target=_drive,
            args=(address, batch, method, tune_in_offset, deadline_ms, recorder),
            daemon=True,
        )
        for batch in (pairs[index::concurrency] for index in range(concurrency))
        if batch
    ]
    refresher: Optional[threading.Thread] = None
    if refreshes:
        marks = [
            int(len(pairs) * (index + 1) / (len(refreshes) + 1))
            for index in range(len(refreshes))
        ]
        refresher = threading.Thread(
            target=_fire_refreshes,
            args=(address, marks, refreshes, recorder),
            daemon=True,
        )
    started = time.perf_counter()
    for thread in drivers + ([refresher] if refresher is not None else []):
        thread.start()
    for thread in drivers:
        thread.join()
    if refresher is not None:
        refresher.join(timeout=600.0)
    report = recorder.report
    report.duration_s = time.perf_counter() - started
    latencies = recorder.latencies
    if latencies:
        report.latency_ms = {
            "p50": percentile(latencies, 50),
            "p90": percentile(latencies, 90),
            "p99": percentile(latencies, 99),
            "mean": sum(latencies) / len(latencies),
            "max": max(latencies),
        }
    return report
