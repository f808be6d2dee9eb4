"""Load generation from one process over at most two connections.

* ``open_loop`` sends each request at its due time on a fixed schedule,
  whatever the replies do, and times it from that due time -- a stall is
  charged to every request it delays.
* ``closed_loop`` keeps one request in flight per connection: the next is
  sent as soon as the previous reply arrives, so it measures throughput.
* ``RefreshStream`` sends refreshes on its own connection on a fixed
  period, each when it is due or, if the previous one is still running,
  as soon as that one is acknowledged.

Requests that come back ``busy`` are retried after the server's advised
delay; a request still busy after ``MAX_BUSY_RETRIES`` counts as failed.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

MAX_BUSY_RETRIES = 50


@dataclass
class Record:
    """One request as the client saw it."""

    index: int
    due: float
    sent: float
    done: float
    response: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    busy_retries: int = 0

    @property
    def latency_ms(self) -> float:
        """Time from the due time to the reply; a failed request misses any
        latency limit, so it counts as infinitely late."""
        return math.inf if self.error is not None else (self.done - self.due) * 1000.0

    @property
    def service_ms(self) -> float:
        return (self.done - self.sent) * 1000.0


def query_request(query) -> Dict[str, Any]:
    method, source, target, offset = query
    return {
        "op": "query",
        "method": method,
        "source": source,
        "target": target,
        "tune_in_offset": offset,
    }


class _Connection:
    """A client connection that reconnects after transport failures."""

    def __init__(self, address) -> None:
        self._address = address
        self._client = None

    def call(self, request: Dict[str, Any], record: Record) -> None:
        from repro.serving import protocol
        from repro.serving.client import ServingClient

        while True:
            try:
                if self._client is None:
                    self._client = ServingClient(self._address, timeout=60.0)
                record.response = self._client.call(request)
                return
            except protocol.ServerBusy as busy:
                record.busy_retries += 1
                if record.busy_retries > MAX_BUSY_RETRIES:
                    record.error = "busy retries exhausted"
                    return
                time.sleep(busy.retry_after_ms / 1000.0)
            except protocol.ServerError as exc:
                record.error = f"server error: {exc}"
                return
            except (protocol.ProtocolError, protocol.DeadlineExceeded, OSError) as exc:
                record.error = f"transport: {type(exc).__name__}: {exc}"
                self.close()
                return

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    address, requests: Sequence[Dict[str, Any]], rate: float, connections: int
) -> List[Record]:
    """Send ``requests`` at ``rate`` per second, request ``i`` due at
    ``start + i / rate`` on connection ``i % connections``."""
    records: List[Optional[Record]] = [None] * len(requests)
    start = time.perf_counter() + 0.02

    def drive(lane: int) -> None:
        connection = _Connection(address)
        try:
            for index in range(lane, len(requests), connections):
                due = start + index / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                record = Record(index=index, due=due, sent=time.perf_counter(), done=0.0)
                connection.call(requests[index], record)
                record.done = time.perf_counter()
                records[index] = record
        finally:
            connection.close()

    _run_threads([lambda lane=lane: drive(lane) for lane in range(connections)])
    return [record for record in records if record is not None]


def closed_loop(
    address,
    requests: Sequence[Dict[str, Any]],
    connections: int,
    seconds: Optional[float] = None,
) -> List[Record]:
    """Keep ``connections`` requests in flight, taking the next request
    from ``requests`` in order, for ``seconds`` or until none are left."""
    counter = itertools.count()
    lock = threading.Lock()
    records: List[Record] = []
    end = None if seconds is None else time.perf_counter() + seconds
    exhausted = threading.Event()

    def drive() -> None:
        connection = _Connection(address)
        mine: List[Record] = []
        try:
            while end is None or time.perf_counter() < end:
                with lock:
                    index = next(counter)
                if index >= len(requests):
                    exhausted.set()
                    break
                now = time.perf_counter()
                record = Record(index=index, due=now, sent=now, done=0.0)
                connection.call(requests[index], record)
                record.done = time.perf_counter()
                mine.append(record)
        finally:
            connection.close()
            with lock:
                records.extend(mine)

    _run_threads([drive] * connections)
    if end is not None and exhausted.is_set():
        raise RuntimeError("closed loop ran out of generated requests")
    records.sort(key=lambda record: record.index)
    return records


def window_rates(records: Sequence[Record], windows: Sequence[Tuple[float, float]]) -> List[float]:
    """Completions per second inside each ``(start, end)`` time window."""
    rates = []
    for start, end in windows:
        done = sum(1 for r in records if r.error is None and start <= r.done < end)
        rates.append(done / (end - start))
    return rates


class RefreshStream:
    """Sends update batches on its own connection, batch ``i`` due at
    ``start + (i + 0.5) * period``, for ``seconds``."""

    def __init__(
        self, address, batches: Sequence[Sequence[Any]], seconds: float, period: float
    ) -> None:
        self.address = address
        self.batches = batches
        self.seconds = seconds
        self.period = period
        self.records: List[Record] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "RefreshStream":
        self._thread.start()
        return self

    def _run(self) -> None:
        connection = _Connection(self.address)
        start = time.perf_counter()
        try:
            for index, batch in enumerate(self.batches):
                due = start + (index + 0.5) * self.period
                if due >= start + self.seconds:
                    break
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                request = {"op": "refresh", "updates": [[s, t, w] for s, t, w in batch]}
                record = Record(index=index, due=due, sent=time.perf_counter(), done=0.0)
                connection.call(request, record)
                record.done = time.perf_counter()
                self.records.append(record)
        finally:
            connection.close()

    def join(self) -> List[Record]:
        self._thread.join()
        if len(self.records) == len(self.batches):
            raise RuntimeError("refresh stream ran out of generated updates")
        return self.records
