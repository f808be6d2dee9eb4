"""Untraced runs: the end-to-end metrics of one workload, with every
answer checked against the oracle.

A daemon workload spawns ``python -m repro serve`` on an empty store three
times (``setup_s`` is the median cold start to the first correct answer)
and keeps the last daemon.  It then sends the workload's reference
requests, which are the same for every seed: they warm the workers up, and
the paper factors and the memory reading are taken from them, so these
read the same in every run of the same code.

The daemon's served timings -- an open loop, a closed loop, refreshes
beside reads -- are the load model, reported in the ledger: on a shared
two-core host they do not repeat within a tenth, because the client, the
server and both workers compete for the cores.  ``latency_ms`` is timed on
a :class:`~local.LocalServer` instead: the same server and worker code in
this process, queried one request at a time (``point-5k``, ``mixed-1k``)
or refreshed with the same update batches (``refresh-load``).  The fleet
workload builds its system in-process three times the same way, simulates
the reference fleet, and then the seed's fleet in back-to-back blocks.

Every end-to-end time is scaled to a nominal host speed by a reference
computation run around it (see ``speed.py``); the raw times are kept in
the results file.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import fresh_dir, geometric_mean, mean, median, metric, percentile, pss_kb
from daemon import Daemon, cold_start
from load import Record, RefreshStream, closed_loop, open_loop, query_request, window_rates
from oracle import Oracle, agrees
from speed import Reference, scaled
from workloads import (
    REFERENCE_SEED,
    Workload,
    hot_routes,
    make_fleet,
    make_queries,
    make_updates,
)

#: Cold starts per run; ``setup_s`` is their median.
SETUPS = 3
#: Rounds of (local, open-loop, closed-loop) windows on steady workloads,
#: and the first two windows' shares of the run: five of its eight default
#: seconds time the end-to-end metric, the rest drive the served load model.
ROUNDS = 5
LOCAL_SHARE = 0.625
OPEN_SHARE = 0.1875
#: Share of ``refresh-load``'s seconds that serves reads beside refreshes.
#: The rest refreshes the local server a fixed number of times per second
#: of the run, about 0.6 s each: always the first reference batches, in
#: order, so every run of the same code times the same refreshes (sixteen
#: in a run of the default eight seconds).  The host's speed moves within
#: a single refresh, so one refresh scales to within about 10%; the
#: geometric mean needs that many to repeat within a few percent.
SERVED_REFRESH_SHARE = 0.4
LOCAL_REFRESHES_PER_S = 2.0
#: Served answers compared field by field with a direct in-process system.
IDENTITY_SAMPLE = 200
#: Seconds of reference before and after each cold start, fleet block and
#: local refresh; local queries are timed in chunks between single rounds
#: of the reference.
SETUP_REFERENCE_S = 0.15
BLOCK_REFERENCE_S = 0.05
REFRESH_REFERENCE_S = 0.05
LOCAL_CHUNK = 20
#: One refresh is due every this many seconds on ``refresh-load``.
REFRESH_PERIOD_S = 1.5
#: Upper bounds on the closed-loop and local rates, used to size the
#: generated inputs.
_MAX_RATE = 4000.0
_MAX_LOCAL_RATE = 2000.0


def local_refreshes(seconds: float) -> int:
    """Local refreshes a ``refresh-load`` run of ``seconds`` times."""
    return max(1, round(seconds * LOCAL_REFRESHES_PER_S))


def serve_config(workload: Workload, store_dir=None):
    """The configuration ``repro serve`` builds from the workload's flags."""
    from repro.serving import ServeConfig

    return ServeConfig(
        network=workload.network,
        scale=workload.scale,
        seed=workload.network_seed,
        regions=workload.regions,
        landmarks=4,
        methods=workload.methods,
        store_dir=None if store_dir is None else str(store_dir),
    )


def experiment_config(workload: Workload):
    return serve_config(workload).experiment_config()


@dataclass
class Inputs:
    """Everything generated for one run, shared by the traced replay."""

    workload: Workload
    seed: int
    seconds: float
    network: Any
    oracle: Oracle
    reference: Reference
    first: Tuple = ()
    #: The reference requests: the same for every seed.
    warmup: List[Tuple] = field(default_factory=list)
    #: Queries timed through the local server.
    local: List[Tuple] = field(default_factory=list)
    open: List[Tuple] = field(default_factory=list)
    closed: List[Tuple] = field(default_factory=list)
    updates: List[List[Tuple[int, int, float]]] = field(default_factory=list)
    #: The reference fleet (the same for every seed) and the seed's fleet.
    reference_devices: List[Any] = field(default_factory=list)
    devices: List[Any] = field(default_factory=list)


def prepare(workload: Workload, seed: int, seconds: float) -> Inputs:
    from repro.network import datasets

    network = datasets.load(workload.network, scale=workload.scale, seed=workload.network_seed)
    oracle = Oracle.of_network(network)
    inputs = Inputs(workload, seed, seconds, network, oracle, Reference(oracle.adjacency()))
    node_ids = network.node_ids()
    if workload.kind == "fleet":
        def reachable(source: int, target: int) -> bool:
            return not math.isinf(oracle.distances([(source, target)])[(source, target)])

        routes = hot_routes(node_ids, reachable)
        truth = oracle.distances(routes)
        inputs.reference_devices = make_fleet(workload, REFERENCE_SEED, routes, truth)
        inputs.devices = make_fleet(workload, seed, routes, truth)
        return inputs
    inputs.warmup = make_queries(workload, REFERENCE_SEED, node_ids, workload.warmup)
    inputs.first = inputs.warmup[0]
    if workload.refreshes:
        counts = (0, int(workload.open_rate * seconds * SERVED_REFRESH_SHARE), 0)
        # The updates are reference inputs: how much a batch costs to repair
        # varies several-fold with where its edges lie, and a run holds too
        # few refreshes for that to average out between seeds.
        weights = {(e.source, e.target): e.weight for e in network.edges()}
        inputs.updates = make_updates(
            workload,
            REFERENCE_SEED,
            weights,
            local_refreshes(seconds) + int(seconds / REFRESH_PERIOD_S) + 2,
        )
    else:
        counts = (
            int(_MAX_LOCAL_RATE * seconds * LOCAL_SHARE),
            int(workload.open_rate * seconds * OPEN_SHARE),
            int(_MAX_RATE * seconds),
        )
    queries = make_queries(workload, seed, node_ids, sum(counts))
    inputs.local = queries[: counts[0]]
    inputs.open = queries[counts[0] : counts[0] + counts[1]]
    inputs.closed = queries[counts[0] + counts[1] :]
    return inputs


@dataclass
class Outcome:
    """What one untraced run measured and checked."""

    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Numbers beyond the end-to-end metrics, for the trace ledger and the
    #: results file.
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


# ----------------------------------------------------------------------
# Checking answers
# ----------------------------------------------------------------------
def check_answers(
    outcome: Outcome,
    records: Sequence[Record],
    queries: Sequence[Tuple],
    versions: Dict[str, Oracle],
) -> None:
    """Count every record, fail errors and answers the oracle disagrees with.

    ``versions`` maps a network fingerprint to the oracle of that version;
    each answer is judged on the version it is stamped with.
    """
    by_version: Dict[str, List[Tuple[Record, Tuple]]] = {}
    for record in records:
        outcome.attempted += 1
        if record.error is not None:
            outcome.failed += 1
            outcome.problem(f"request {record.index}: {record.error}")
            continue
        by_version.setdefault(record.response.get("fingerprint"), []).append(
            (record, queries[record.index])
        )
    for fingerprint, answered in by_version.items():
        oracle = versions.get(fingerprint)
        if oracle is None:
            outcome.failed += len(answered)
            outcome.problem(f"{len(answered)} answers on unknown network {fingerprint}")
            continue
        truth = oracle.distances((q[1], q[2]) for _, q in answered)
        for record, (method, source, target, _offset) in answered:
            response = record.response
            expected = truth[(source, target)]
            if not agrees(float(response["distance"]), bool(response["found"]), expected):
                outcome.failed += 1
                outcome.problem(
                    f"{method} {source}->{target}: served {response['distance']}, "
                    f"oracle {expected}"
                )


def check_identity(outcome: Outcome, system, answered: Sequence[Tuple[Tuple, Dict]]) -> None:
    """A sample of served answers, spread over ``answered``, must equal a
    directly built in-process system's."""
    step = max(1, len(answered) // IDENTITY_SAMPLE)
    for (method, source, target, offset), response in answered[::step][:IDENTITY_SAMPLE]:
        options = system.default_options.replace(tune_in_offset=offset)
        direct = system.query(method, source, target, options=options)
        served = (
            response["distance"],
            response["tuning_time_packets"],
            response["access_latency_packets"],
            response["peak_memory_bytes"],
        )
        expected = (
            direct.distance,
            direct.metrics.tuning_time_packets,
            direct.metrics.access_latency_packets,
            direct.metrics.peak_memory_bytes,
        )
        if served != expected:
            outcome.failed += 1
            outcome.problem(f"{method} {source}->{target}@{offset}: served {served}, direct {expected}")


def paper_factors(responses: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, object]]:
    """Mean tuning time, access latency and client memory (paper factors)."""
    return {
        "tuning_pkts": metric(mean(r["tuning_time_packets"] for r in responses), "packets"),
        "access_pkts": metric(mean(r["access_latency_packets"] for r in responses), "packets"),
        "client_kb": metric(mean(r["peak_memory_bytes"] for r in responses) / 1024.0, "KB"),
    }


# ----------------------------------------------------------------------
# Daemon workloads
# ----------------------------------------------------------------------
def run_daemon(inputs: Inputs) -> Outcome:
    from local import LocalServer

    workload = inputs.workload
    outcome = Outcome()
    base = inputs.oracle
    first_truth = base.distances([inputs.first[1:3]])[inputs.first[1:3]]

    def check_first(query, response) -> None:
        if not agrees(float(response["distance"]), bool(response["found"]), first_truth):
            raise RuntimeError(f"first answer {response['distance']} != oracle {first_truth}")

    setups: List[Tuple[float, float]] = []
    daemon: Optional[Daemon] = None
    exit_codes: List[int] = []
    leftovers: List[str] = []
    for attempt in range(SETUPS):
        (started, elapsed), _, factor = inputs.reference.around(
            lambda: cold_start(workload, f"s{attempt}", inputs.first, check_first),
            SETUP_REFERENCE_S,
        )
        outcome.attempted += 1
        setups.append((elapsed, factor))
        if attempt < SETUPS - 1:
            exit_codes.append(started.stop())
            leftovers += started.leftover_segments()
            started.remove_run_dir()
        else:
            daemon = started
    assert daemon is not None
    store_dir = fresh_dir(f"{workload.name}-local-{os.getpid()}")
    local = None
    try:
        versions = {daemon.info()["fingerprint"]: base}
        warm = closed_loop(daemon.address, [query_request(q) for q in inputs.warmup], 2)
        # After the reference requests the daemon is in the same state in
        # every run, so memory read here repeats.
        memory = daemon.pss_kb()
        local = LocalServer(workload, store_dir)
        reference_answers = [(inputs.warmup[r.index], r.response) for r in warm if r.error is None]
        check_identity(outcome, local.system, reference_answers)
        run = _refresh_phase if inputs.updates else _steady_phase
        phase = run(daemon, local, inputs)
        if not inputs.updates:
            opened = phase["records"]["open"]
            check_identity(
                outcome,
                local.system,
                [(inputs.open[r.index], r.response) for r in opened if r.error is None],
            )
        end_memory = daemon.pss_kb()
        segment_bytes = daemon.info()["segment_bytes"]
    finally:
        if local is not None:
            local.close()
        shutil.rmtree(store_dir, ignore_errors=True)
        exit_codes.append(daemon.stop())
        leftovers += daemon.leftover_segments()
        daemon.remove_run_dir()
    records = {"warm": warm, **phase["records"]}

    # Every refresh publishes the next network version.
    oracle = base
    for record, batch in zip(records["refresh"], inputs.updates):
        outcome.attempted += 1
        response = record.response or {}
        if record.error is not None or response.get("degraded"):
            outcome.failed += 1
            outcome.problem(f"refresh {record.index}: {record.error or response.get('error')}")
            break
        oracle = oracle.with_updates(batch)
        versions[response["fingerprint"]] = oracle
    # The local server applies the same batches from the same network, so
    # it must reach the same versions.
    served = [r.response.get("fingerprint") for r in records["refresh"] if r.response]
    for index, reply in enumerate(phase["local_refreshes"]):
        outcome.attempted += 1
        if index < len(served) and reply["fingerprint"] != served[index]:
            outcome.failed += 1
            outcome.problem(f"local refresh {index} reached {reply['fingerprint']}, "
                            f"the daemon {served[index]}")
    check_answers(outcome, warm, inputs.warmup, versions)
    check_answers(outcome, records["local"], inputs.local, versions)
    check_answers(outcome, records["open"], inputs.open, versions)
    check_answers(outcome, records["closed"], inputs.closed, versions)
    if any(code != 0 for code in exit_codes):
        outcome.problem(f"daemon exit codes {exit_codes}")
    if leftovers:
        outcome.problem(f"shared-memory segments left behind: {leftovers}")

    outcome.metrics = {
        "setup_s": metric(median(scaled(setups)), "s"),
        "latency_ms": metric(phase["latency_ms"], "ms"),
        **paper_factors([response for _, response in reference_answers]),
        "pss_mb": metric((memory["server"] + sum(memory["workers"])) / 1024.0, "MB"),
    }
    outcome.detail = {
        "setups_raw_s": [elapsed for elapsed, _ in setups],
        "setup_factors": [factor for _, factor in setups],
        "latency_raw_ms": phase["latency_raw_ms"],
        "speed_factor": median([factor for _, factor in phase["timed"]]),
        "local_refreshes": len(phase["local_refreshes"]),
        **phase["detail"],
        "memory_kb": memory,
        "end_memory_kb": end_memory,
        "segment_bytes": segment_bytes,
        "records": records,
    }
    return outcome


def _indexed(records: List[Record], offset: int) -> List[Record]:
    for record in records:
        record.index += offset
    return records


def _local_window(local, inputs: Inputs, records: List[Record], timed, seconds: float) -> None:
    """Queries one at a time through the local server for ``seconds``, each
    ``LOCAL_CHUNK`` of them timed between two rounds of the reference."""
    before = inputs.reference.factor()
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        chunk: List[float] = []
        for _ in range(LOCAL_CHUNK):
            index = len(records)
            if index == len(inputs.local):
                raise RuntimeError("local window ran out of generated requests")
            started = time.perf_counter()
            response = local.handle(query_request(inputs.local[index]))
            done = time.perf_counter()
            chunk.append((done - started) * 1000.0)
            error = None if response.get("status") == "ok" else str(response.get("error"))
            records.append(Record(index, started, started, done, response, error))
        after = inputs.reference.factor()
        timed.extend((milliseconds, (before + after) / 2) for milliseconds in chunk)
        before = after


def _steady_phase(daemon, local, inputs: Inputs) -> Dict[str, Any]:
    """Rounds of a local window, an open loop and a closed loop.

    ``timed`` holds each local query's time with the factor of the
    reference runs around its chunk.  The open and closed loops are the
    load model, for the ledger: latency timed from each request's due time,
    and completions per second over the closed windows.
    """
    workload = inputs.workload
    share = inputs.seconds / ROUNDS
    per_round = len(inputs.open) // ROUNDS
    window = share * (1.0 - LOCAL_SHARE - OPEN_SHARE)
    closed_requests = [query_request(q) for q in inputs.closed]
    records: Dict[str, List[Record]] = {"local": [], "open": [], "closed": [], "refresh": []}
    timed: List[Tuple[float, float]] = []
    rates: List[float] = []
    for index in range(ROUNDS):
        _local_window(local, inputs, records["local"], timed, share * LOCAL_SHARE)
        first = index * per_round
        chunk = [query_request(q) for q in inputs.open[first : first + per_round]]
        records["open"] += _indexed(
            open_loop(daemon.address, chunk, workload.open_rate, workload.query_connections),
            first,
        )
        taken = len(records["closed"])
        start = time.perf_counter()
        window_records = _indexed(
            closed_loop(
                daemon.address, closed_requests[taken:], workload.query_connections, window
            ),
            taken,
        )
        records["closed"] += window_records
        rates += window_rates(window_records, [(start, start + window)])
    latencies = [r.latency_ms for r in records["open"]]
    return {
        "records": records,
        "timed": timed,
        "latency_ms": median(scaled(timed)),
        "latency_raw_ms": median([measured for measured, _ in timed]),
        "local_refreshes": [],
        "detail": {
            "qps": mean(rates),
            "p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99),
            "tail_samples": len(latencies),
        },
    }


def _refresh_phase(daemon, local, inputs: Inputs) -> Dict[str, Any]:
    """Reads in an open loop on one connection beside refreshes sent every
    ``REFRESH_PERIOD_S`` on the other; then the first batches through the
    local server.

    ``timed`` holds each local refresh's time -- the server's handler and
    the worker's swap -- with the factor of the reference runs around it.
    The batches differ in cost, so ``latency_ms`` is their geometric mean,
    which every refresh moves, rather than their median, which one picks.
    """
    workload = inputs.workload
    served_seconds = inputs.seconds * SERVED_REFRESH_SHARE
    stream = RefreshStream(daemon.address, inputs.updates, served_seconds, REFRESH_PERIOD_S)
    stream.start()
    reads = open_loop(
        daemon.address,
        [query_request(q) for q in inputs.open],
        workload.open_rate,
        workload.query_connections,
    )
    refreshes = stream.join()
    timed: List[Tuple[float, float]] = []
    replies: List[Dict[str, Any]] = []
    for batch in inputs.updates[: local_refreshes(inputs.seconds)]:
        reply, elapsed, factor = inputs.reference.around(
            lambda: local.refresh(batch), REFRESH_REFERENCE_S
        )
        replies.append(reply)
        timed.append((elapsed * 1000.0, factor))
    latencies = [r.latency_ms for r in reads]
    return {
        "records": {"local": [], "open": reads, "closed": [], "refresh": refreshes},
        "timed": timed,
        "latency_ms": geometric_mean(scaled(timed)),
        "latency_raw_ms": geometric_mean([measured for measured, _ in timed]),
        "local_refreshes": replies,
        "detail": {
            "refresh_raw_ms": [(r.done - r.sent) * 1000.0 for r in refreshes],
            "p50_ms": percentile(latencies, 50),
            "p99_ms": percentile(latencies, 99),
            "tail_samples": len(latencies),
        },
    }


# ----------------------------------------------------------------------
# Fleet workload
# ----------------------------------------------------------------------
def build_fleet_system(workload: Workload):
    from repro.engine.system import AirSystem

    system = AirSystem.from_config(experiment_config(workload))
    for method in workload.methods:
        system.scheme(method)
    return system


def run_fleet(inputs: Inputs) -> Outcome:
    workload = inputs.workload
    method = workload.methods[0]
    outcome = Outcome()
    setups: List[Tuple[float, float]] = []
    system = None
    for _ in range(SETUPS):
        system = None
        gc.collect()
        system, elapsed, factor = inputs.reference.around(
            lambda: build_fleet_system(workload), SETUP_REFERENCE_S
        )
        setups.append((elapsed, factor))

    # The reference fleet is the first, untimed block: its paper factors
    # read the same for every seed.
    reference = system.simulate_fleet(method, inputs.reference_devices)
    outcome.attempted += reference.num_devices
    check_fleet_devices(outcome, system, method, inputs.reference_devices, reference)
    devices = inputs.devices
    signature = _fleet_summary(system.simulate_fleet(method, devices))
    blocks: List[Tuple[float, float]] = []
    end = time.perf_counter() + inputs.seconds
    while time.perf_counter() < end:
        run, elapsed, factor = inputs.reference.around(
            lambda: system.simulate_fleet(method, devices), BLOCK_REFERENCE_S
        )
        blocks.append((elapsed, factor))
        outcome.attempted += run.num_devices
        if _fleet_summary(run) != signature or run.mismatches:
            outcome.failed += run.num_devices
            outcome.problem(f"fleet block {len(blocks)} differs from the first block")
    latency_gap = check_fleet_devices(outcome, system, method, devices, run)

    raw = [elapsed for elapsed, _ in blocks]
    outcome.metrics = {
        "setup_s": metric(median(scaled(setups)), "s"),
        "latency_ms": metric(median(scaled(blocks)) * 1000.0, "ms"),
        "tuning_pkts": metric(reference.mean("tuning_time_packets"), "packets"),
        "access_pkts": metric(reference.mean("access_latency_packets"), "packets"),
        "client_kb": metric(reference.mean("peak_memory_bytes") / 1024.0, "KB"),
        "pss_mb": metric(pss_kb(os.getpid()) / 1024.0, "MB"),
    }
    outcome.detail = {
        "setups_raw_s": [elapsed for elapsed, _ in setups],
        "setup_factors": [factor for _, factor in setups],
        "speed_factor": median([factor for _, factor in blocks]),
        "blocks_raw_s": raw,
        "devices_per_s": len(devices) / median(raw),
        "p50_ms": percentile([seconds * 1000.0 for seconds in raw], 50),
        "p99_ms": percentile([seconds * 1000.0 for seconds in raw], 99),
        "tail_samples": len(raw),
        "probes": run.probes,
        "replays": run.replays,
        "devices": run.num_devices,
        "cycle_packets": run.cycle_packets,
        "replay_latency_gap_packets": latency_gap,
    }
    return outcome


def _fleet_summary(run) -> Tuple:
    return (
        run.num_devices,
        run.probes,
        run.mean("tuning_time_packets"),
        run.mean("access_latency_packets"),
        run.mean("peak_memory_bytes"),
    )


def check_fleet_devices(outcome: Outcome, system, method: str, devices, run) -> int:
    """Every device's distance against the oracle (the specs carry its
    truth), and a sample of devices against a direct query at the same
    tune-in offset.

    Replay guarantees exact distance, tuning time and memory, which are
    checked.  Access latency is replayed from the probe's session and may
    differ from a fresh one; the largest gap seen is returned, in packets.
    """
    outcomes = run.outcomes
    wrong = sum(
        1
        for spec, device in zip(devices, outcomes)
        if not agrees(device.distance, device.found, spec.true_distance)
    )
    if wrong:
        outcome.failed += wrong
        outcome.problem(f"{wrong} fleet devices disagree with the oracle")
    gap = 0
    step = max(1, len(outcomes) // IDENTITY_SAMPLE)
    for device in outcomes[::step][:IDENTITY_SAMPLE]:
        options = system.default_options.replace(tune_in_offset=device.tune_in_offset)
        direct = system.query(method, device.spec.source, device.spec.target, options=options)
        gap = max(
            gap,
            abs(direct.metrics.access_latency_packets - device.metrics.access_latency_packets),
        )
        if (
            direct.distance != device.distance
            or direct.metrics.tuning_time_packets != device.metrics.tuning_time_packets
            or direct.metrics.peak_memory_bytes != device.metrics.peak_memory_bytes
        ):
            outcome.failed += 1
            outcome.problem(f"fleet device {device.spec.device_id} differs from a direct query")
    return gap
