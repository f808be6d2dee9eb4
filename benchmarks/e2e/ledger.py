"""The ``--trace 1`` ledger: per-layer numbers from spans around each layer.

Spans are recorded from the benchmark's own files: :class:`Tracer` wraps
the public entry point of every layer (class attributes, or the module
attribute its caller looks up) for the length of a replay and restores
them afterwards.  A span holds its name, start, end, parent span and
request id; spans stay in memory and are written to ``trace.jsonl`` at
the end.  A span's self time is its duration minus its direct children's,
so each layer's self times add up to the time of the requests that
contain them.

The replay runs the workload's own generated inputs in-process through the
code the daemon runs, on a :class:`~local.LocalServer` -- the server's
``_publish_segment`` (``artifact()`` -> ``SharedArtifactSegment.publish``)
-> ``WorkerRuntime.load_segment`` -> ``WorkerRuntime.handle`` for serving,
the server's ``_refresh`` handler (``apply_updates`` -> ``refresh_async``
-> ``_publish_segment``) -> ``load_segment`` for refresh -- and through
``simulate_fleet`` for the fleet.  The serving-side numbers (load model,
waits, retries, memory, refresh round trips) come from the untraced daemon
run the ledger is printed with.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import shutil
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import RUN_ROOT, fresh_dir, median, metric, percentile
from daemon import WORKERS

#: Served requests replayed in-process: once to warm up, then each twice,
#: without and with spans.
REPLAY_REQUESTS = {"point-5k": 400, "mixed-1k": 900, "refresh-load": 300}
#: Fleet blocks replayed after one warm block, each without and with spans.
REPLAY_FLEET_BLOCKS = 3

Span = Tuple[int, Optional[int], str, int, int, Optional[int], str]


class Tracer:
    """Collects spans from every thread; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self.request: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, self.request, self.phase))

    def _wrap(self, function, name: str):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                return function(*args, **kwargs)

        traced.__wrapped__ = function
        return traced

    def patch(self, owner: Any, attribute: str, name: str) -> None:
        """Record a span named ``name`` around every call of the attribute."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name))
        else:
            replacement = self._wrap(original, name)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def unpatch(self, keep: int = 0) -> None:
        """Restore every patch made after the first ``keep``."""
        while len(self._patched) > keep:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    @contextlib.contextmanager
    def patching(self, owner: Any, attribute: str, name: str):
        """One more attribute wrapped, for the duration."""
        keep = len(self._patched)
        self.patch(owner, attribute, name)
        try:
            yield
        finally:
            self.unpatch(keep)

    @contextlib.contextmanager
    def patched(self):
        """Every layer's entry point wrapped, for the duration."""
        import repro.fleet.simulator as fleet_simulator
        from repro.air.base import AirClient, AirIndexScheme
        from repro.air.border_paths import BorderPathPrecomputation
        from repro.broadcast.channel import ClientSession
        from repro.broadcast.replay import RecordingSession
        from repro.engine.system import AirSystem
        from repro.network.algorithms.kernel import KernelArena
        from repro.serving.shm import SharedArtifactSegment
        from repro.serving.worker import WorkerRuntime
        from repro.store import ArtifactStore

        targets = [
            (WorkerRuntime, "handle", "serving.worker"),
            (WorkerRuntime, "load_segment", "worker.load_segment"),
            (AirSystem, "query", "engine.query"),
            (AirSystem, "simulate_fleet", "fleet.simulate"),
            (AirClient, "query", "air.client"),
            (KernelArena, "point_to_point", "kernel.search"),
            (KernelArena, "search", "kernel.search"),
            (KernelArena, "multi_target", "kernel.search"),
            (KernelArena, "sssp", "kernel.search"),
            (KernelArena, "many_to_many", "kernel.m2m"),
            (AirIndexScheme, "artifact", "serialize.artifact"),
            (ArtifactStore, "put", "store.put"),
            (SharedArtifactSegment, "publish", "shm.publish"),
            (BorderPathPrecomputation, "refresh", "air.repair"),
            # The simulator calls the bulk kernel through its own module
            # namespace, so that is the binding to replace.
            (fleet_simulator, "replay_trace_bulk", "replay.bulk"),
        ]
        for session_class in (ClientSession, RecordingSession):
            for attribute in vars(session_class):
                if attribute.startswith("receive_"):
                    targets.append((session_class, attribute, "broadcast.receive"))
        try:
            for owner, attribute, name in targets:
                self.patch(owner, attribute, name)
            yield self
        finally:
            self.unpatch()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, request, phase in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "request": request,
                            "phase": phase,
                        }
                    )
                    + "\n"
                )


class SpanTable:
    """Self times, inclusive times and call counts per layer and phase."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = spans
        self.by_id = {span[0]: span for span in spans}
        children: Dict[int, int] = defaultdict(int)
        for span_id, parent, _name, start, end, _request, _phase in spans:
            if parent is not None:
                children[parent] += end - start
        self.self_ns = {span[0]: span[4] - span[3] - children[span[0]] for span in spans}

    def _select(self, name: str, phase: Optional[str]):
        return [s for s in self.spans if s[2] == name and (phase is None or s[6] == phase)]

    def self_s(self, name: str, phase: Optional[str] = None) -> float:
        return sum(self.self_ns[s[0]] for s in self._select(name, phase)) / 1e9

    def total_s(self, name: str, phase: Optional[str] = None) -> float:
        """Inclusive time of the outermost spans of a layer."""
        return sum(
            s[4] - s[3] for s in self._select(name, phase) if not self._nested(s, name)
        ) / 1e9

    def calls(self, name: str, phase: Optional[str] = None) -> int:
        """Calls into a layer from outside it (nested same-layer calls are
        part of the outer call)."""
        return sum(1 for s in self._select(name, phase) if not self._nested(s, name))

    def _nested(self, span: Span, name: str) -> bool:
        parent = self.by_id.get(span[1]) if span[1] is not None else None
        return parent is not None and parent[2] == name

    def inside_s(self, name: str, ancestor: str, phase: Optional[str] = None) -> float:
        """Inclusive time of ``name`` spans that run inside an ``ancestor`` span."""
        total = 0
        for span in self._select(name, phase):
            parent = span[1]
            while parent is not None:
                above = self.by_id[parent]
                if above[2] == ancestor:
                    total += span[4] - span[3]
                    break
                parent = above[1]
        return total / 1e9


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
def _alternate(tracer: Tracer, call, items) -> Tuple[List[float], List[float]]:
    """Run each item twice, without spans and then with them, timing both.

    Alternating item by item keeps drift in machine speed out of the
    comparison that gives ``trace.overhead_pct``.
    """
    plain: List[float] = []
    traced: List[float] = []
    for index, item in enumerate(items):
        begin = time.perf_counter()
        call(item)
        plain.append(time.perf_counter() - begin)
        with tracer.patched():
            tracer.request = index
            begin = time.perf_counter()
            call(item)
            traced.append(time.perf_counter() - begin)
    tracer.request = None
    return plain, traced


def _hit_ratio(before, after) -> float:
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    return hits / lookups if lookups else 0.0


def _served(inputs, outcome):
    """Answered requests of the closed loop, or of the open loop on a
    workload without one, with the queries they index into."""
    records = outcome.detail["records"]
    if records["closed"]:
        return [r for r in records["closed"] if r.error is None], inputs.closed
    return [r for r in records["open"] if r.error is None], inputs.open


def replay_daemon(inputs, outcome, tracer: Tracer) -> Dict[str, Any]:
    """Setup, queries and refreshes of a daemon workload on a
    :class:`~local.LocalServer`: the server's own publication and refresh
    handler, and one worker's ``load_segment`` and ``handle``."""
    from load import query_request
    from local import LocalServer
    from repro.engine.system import AirSystem

    workload = inputs.workload
    store_dir = fresh_dir(f"replay-{workload.name}")
    served, queries = _served(inputs, outcome)
    served = served[: REPLAY_REQUESTS[workload.name]]
    requests = [query_request(queries[r.index]) for r in served]
    result: Dict[str, Any] = {"served": served, "reports": []}
    local = None
    try:
        # The first ``scheme()`` call of each method builds it.
        with tracer.patched(), tracer.span("setup"), tracer.patching(
            AirSystem, "scheme", "engine.build"
        ):
            local = LocalServer(workload, store_dir)
        for request in requests:  # warm the worker's caches
            local.handle(request)
        before = local.runtime.system.cache_info()
        tracer.phase = "query"
        plain, traced = _alternate(tracer, local.handle, requests)
        result.update(plain=plain, traced=traced)
        result["hit_ratio"] = _hit_ratio(before, local.runtime.system.cache_info())
        tracer.phase = "refresh"
        with tracer.patched():
            for batch in inputs.updates[: outcome.detail["local_refreshes"]]:
                with tracer.span("engine.refresh"):
                    result["reports"].append(local.refresh(batch))
    finally:
        if local is not None:
            local.close()
        shutil.rmtree(store_dir, ignore_errors=True)
    return result


def replay_fleet(inputs, tracer: Tracer) -> Dict[str, Any]:
    """Setup and fleet blocks of the fleet workload, in-process."""
    from measure import experiment_config
    from repro.engine.system import AirSystem

    method = inputs.workload.methods[0]
    with tracer.patched(), tracer.span("setup"):
        system = AirSystem.from_config(experiment_config(inputs.workload))
        with tracer.span("engine.build"):
            system.scheme(method)
    runs = []

    def block(_index) -> None:
        runs.append(system.simulate_fleet(method, inputs.devices))

    block(None)  # warm
    before = system.cache_info()
    tracer.phase = "query"
    plain, traced = _alternate(tracer, block, range(REPLAY_FLEET_BLOCKS))
    return {
        "plain": plain,
        "traced": traced,
        "run": runs[-1],
        "hit_ratio": _hit_ratio(before, system.cache_info()),
    }


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
def per_layer(inputs, outcome) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric of one workload (0 where a layer is absent)."""
    workload = inputs.workload
    tracer = Tracer()
    fleet = workload.kind == "fleet"
    replay = replay_fleet(inputs, tracer) if fleet else replay_daemon(inputs, outcome, tracer)
    RUN_ROOT.mkdir(exist_ok=True)
    tracer.write(RUN_ROOT / f"trace-{workload.name}-seed{inputs.seed}.jsonl")
    table = SpanTable(tracer.spans)

    queries = max(1, table.calls("air.client", "query"))
    ledger: Dict[str, Dict[str, object]] = {}

    def put(name: str, value: float, unit: str) -> None:
        ledger[name] = metric(value, unit)

    # -- the load model and serving, from the untraced run -------------------
    detail = outcome.detail
    put("host.speed_factor", detail["speed_factor"], "ratio")
    put("fleet.devices_per_s", detail.get("devices_per_s", 0.0), "1/s")
    serving = {} if fleet else _serving_numbers(inputs, outcome, replay)
    for name, unit in (
        ("serving.qps", "1/s"),
        ("serving.p50_ms", "ms"),
        ("serving.p99_ms", "ms"),
        ("serving.refresh_s", "s"),
        ("serving.transport_ms", "ms"),
        ("serving.gen_late_ms", "ms"),
        ("serving.gen_late_max_ms", "ms"),
        ("serving.busy_retries", "count"),
        ("serving.worker_skew", "ratio"),
        ("serving.server_pss_mb", "MB"),
        ("serving.worker_pss_mb", "MB"),
        ("shm.segment_mb", "MB"),
        ("serving.p99_in_refresh_ms", "ms"),
        ("serving.p99_out_refresh_ms", "ms"),
        ("serving.refresh_max_s", "s"),
    ):
        put(name, serving.get(name, 0.0), unit)

    # -- the query path, per query ------------------------------------------
    for name, layer in (
        ("serving.worker_self_us", "serving.worker"),
        ("engine.query_self_us", "engine.query"),
        ("air.client_self_us", "air.client"),
        ("broadcast.receive_us", "broadcast.receive"),
        ("kernel.search_us", "kernel.search"),
    ):
        put(name, table.self_s(layer, "query") * 1e6 / queries, "us")
    put("serving.worker_calls", table.calls("serving.worker", "query"), "count")
    put("engine.query_calls", table.calls("engine.query", "query"), "count")
    put("air.client_calls", table.calls("air.client", "query"), "count")
    put("broadcast.receive_calls", table.calls("broadcast.receive", "query"), "count")
    put("kernel.searches", table.calls("kernel.search", "query"), "count")
    put("engine.cache_hit_ratio", replay["hit_ratio"], "ratio")

    # -- fleet, per simulated block -----------------------------------------
    blocks = REPLAY_FLEET_BLOCKS if fleet else 1
    run = replay.get("run")
    put("fleet.simulate_s", table.total_s("fleet.simulate", "query") / blocks, "s")
    put("replay.bulk_s", table.total_s("replay.bulk", "query") / blocks, "s")
    put("fleet.probe_s", table.inside_s("air.client", "fleet.simulate", "query") / blocks, "s")
    put("fleet.probes", run.probes if run else 0, "count")
    put("fleet.replay_share", run.replays / run.num_devices if run else 0.0, "ratio")

    # -- refresh, per refresh -----------------------------------------------
    reports = replay.get("reports", [])
    refreshes = max(1, len(reports))
    put("engine.refresh_s", table.total_s("engine.refresh", "refresh") / refreshes, "s")
    put("air.repair_s", table.total_s("air.repair", "refresh") / refreshes, "s")
    rebuilt = sum(len(r["incremental"]) + len(r["rebuilt"]) for r in reports)
    put(
        "engine.incremental_share",
        sum(len(r["incremental"]) for r in reports) / rebuilt if rebuilt else 0.0,
        "ratio",
    )

    # -- publication (setup and refresh), per call ----------------------------
    publications = 1 + len(reports)
    artifact_calls = table.calls("serialize.artifact", "setup") + table.calls(
        "serialize.artifact", "refresh"
    )
    for name, layer in (
        ("serialize.artifact_s", "serialize.artifact"),
        ("store.put_s", "store.put"),
        ("shm.publish_s", "shm.publish"),
        ("worker.load_segment_s", "worker.load_segment"),
    ):
        calls = table.calls(layer, "setup") + table.calls(layer, "refresh")
        seconds = table.total_s(layer, "setup") + table.total_s(layer, "refresh")
        put(name, seconds / calls if calls else 0.0, "s")
    put(
        "serialize.artifact_calls",
        artifact_calls / (publications * len(workload.methods)) if not fleet else 0.0,
        "count",
    )

    # -- setup ----------------------------------------------------------------
    build = table.total_s("engine.build", "setup") - table.inside_s(
        "serialize.artifact", "engine.build", "setup"
    ) - table.inside_s("store.put", "engine.build", "setup")
    put("engine.build_s", build, "s")
    put("kernel.m2m_s", table.total_s("kernel.m2m", "setup"), "s")
    if fleet:
        # In-process set-up: what the traced setup spent outside the build
        # (generating the network).
        other = table.total_s("setup", "setup") - build
    else:
        # A daemon's cold start minus its traced parts: interpreter start,
        # imports, network generation and forking the workers.  Workers are
        # spawned one after another, each loading the segment.
        other = median(detail["setups_raw_s"]) - (
            build
            + table.total_s("serialize.artifact", "setup")
            + table.total_s("store.put", "setup")
            + table.total_s("shm.publish", "setup")
            + WORKERS * table.total_s("worker.load_segment", "setup")
        )
    put("setup.other_s", other, "s")

    # -- tracing itself -------------------------------------------------------
    traced = sum(replay["traced"])
    put("trace.overhead_pct", 100.0 * (traced / sum(replay["plain"]) - 1.0), "%")
    roots = sum(s[4] - s[3] for s in tracer.spans if s[6] == "query" and s[1] is None) / 1e9
    put("trace.unattributed_pct", 100.0 * (1.0 - roots / traced), "%")
    return ledger


def _serving_numbers(inputs, outcome, replay) -> Dict[str, float]:
    """Waits, retries, memory and refresh timings of the untraced daemon run."""
    detail = outcome.detail
    records = detail["records"]
    everything = records["warm"] + records["open"] + records["closed"]
    late = [max(0.0, r.sent - r.due) * 1000.0 for r in records["open"]]
    per_worker: Dict[Any, int] = defaultdict(int)
    for record in everything:
        if record.error is None:
            per_worker[record.response.get("worker")] += 1
    served_ms = [r.service_ms for r in replay["served"]]
    in_process_ms = [seconds * 1000.0 for seconds in replay["plain"]]
    memory = detail["end_memory_kb"]
    round_trips = [r.done - r.sent for r in records["refresh"]]
    # Refresh workloads' reads, split by whether a refresh was in flight
    # when they were due.
    inside: List[float] = []
    outside: List[float] = []
    for record in records["open"] if records["refresh"] else []:
        busy = any(r.sent <= record.due < r.done for r in records["refresh"])
        (inside if busy else outside).append(record.latency_ms)
    return {
        "serving.qps": detail.get("qps", 0.0),
        "serving.p50_ms": detail["p50_ms"],
        "serving.p99_ms": detail["p99_ms"],
        "serving.refresh_s": median(round_trips),
        "serving.p99_in_refresh_ms": percentile(inside, 99),
        "serving.p99_out_refresh_ms": percentile(outside, 99),
        "serving.transport_ms": percentile(served_ms, 50) - percentile(in_process_ms, 50),
        "serving.gen_late_ms": sum(late) / len(late) if late else 0.0,
        "serving.gen_late_max_ms": max(late, default=0.0),
        "serving.busy_retries": sum(r.busy_retries for r in everything),
        "serving.worker_skew": max(per_worker.values()) / min(per_worker.values()),
        "serving.server_pss_mb": memory["server"] / 1024.0,
        "serving.worker_pss_mb": sum(memory["workers"]) / 1024.0,
        "shm.segment_mb": outcome.detail["segment_bytes"] / 2**20,
        "serving.refresh_max_s": max(round_trips, default=0.0),
    }
