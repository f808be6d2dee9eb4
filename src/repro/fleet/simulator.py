"""Event-driven multi-client broadcast simulation.

One broadcast cycle, N devices.  The simulator partitions the fleet into

* **lossless** devices, served by the shared-session fast path: one real
  *probe* session per distinct ``(source, target, memory_bound)`` key
  materializes the packet stream (:mod:`repro.broadcast.replay`), and every
  device with that key replays it at its own tune-in offset.  The replay
  runs through the vectorized kernel
  (:func:`repro.broadcast.replay_bulk.replay_trace_bulk`): the trace compiles
  once into a columnar :class:`~repro.broadcast.replay_bulk.TraceTable` and
  the whole group's tuning/latency comes out of O(ops) array passes, so
  per-device Python cost vanishes; and
* **lossy** devices, simulated natively packet by packet (their Bernoulli
  loss draws are part of the result and cannot be shared).

Replay is pure array arithmetic and runs inline
on the calling thread; the worker pool is reserved for the phases that do
real simulation work (probe sessions and native lossy devices), where
threads actually pay off.

Determinism: tune-in offsets and loss seeds are drawn from per-device RNGs
keyed by the device's position in the fleet, the probe for each key is the
first device with that key in device order (fixed before any probe runs, so
probes may fan out over the pool too), and every phase writes into
index-addressed column slots -- so the outcome is bit-identical regardless
of ``concurrency`` (wall-clock fields excepted).
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.air.base import (
    MISMATCH_RTOL,
    AirClient,
    AirIndexScheme,
    ClientOptions,
    QueryResult,
    is_mismatch as _is_mismatch,
)
from repro.broadcast.channel import ClientSession, PacketLossModel
from repro.broadcast.replay import RecordingSession, SessionTrace
from repro.broadcast.replay_bulk import TraceTable, replay_trace_bulk
from repro.concurrency import run_indexed

from repro.fleet.devices import DeviceSpec
from repro.fleet.results import FleetRun

__all__ = ["simulate_fleet", "MISMATCH_RTOL"]

#: Trace cache key: everything that shapes a lossless session's behaviour.
_TraceKey = Tuple[int, int, bool]


def _resolve_tune_in(
    spec: DeviceSpec, rng: Optional[random.Random], total: int
) -> int:
    if spec.tune_in_offset is not None:
        return spec.tune_in_offset % total
    if spec.tune_in_fraction is not None:
        return int(spec.tune_in_fraction * total) % total
    assert rng is not None  # callers create the RNG whenever a draw is due
    return rng.randrange(total)


def simulate_fleet(
    scheme: AirIndexScheme,
    devices: Sequence[DeviceSpec],
    options: Optional[ClientOptions] = None,
    *,
    concurrency: int = 1,
    seed: int = 0,
    chunk_size: Optional[int] = None,
) -> FleetRun:
    """Simulate a fleet of devices tuning into one scheme's broadcast.

    Parameters
    ----------
    scheme:
        A built scheme (its cycle is reused as-is -- no rebuilds).
    devices:
        The fleet, typically from a scenario generator in
        :mod:`repro.experiments.workloads`.
    options:
        Base client options; the per-device ``memory_bound`` flag overrides
        the option's, and per-device loss models replace the option's
        channel-level loss fields.
    concurrency:
        Worker threads for the probe/native phases (replay itself is bulk
        arithmetic and always runs inline).  Must be >= 1; results are
        bit-identical for every value.
    seed:
        Seed of the per-device tune-in/loss draws (for specs that leave
        them unset).
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    specs = list(devices)
    network = scheme.network
    started = time.perf_counter()
    run = FleetRun(scheme=scheme.short_name, concurrency=concurrency)
    if not specs:
        run.wall_seconds = time.perf_counter() - started
        return run

    cycle = scheme.cycle
    total = cycle.total_packets
    run.cycle_packets = total
    run.allocate(specs)
    base_options = options or ClientOptions()

    # ------------------------------------------------------------------
    # One fused pass over the fleet, in device order: validate each distinct
    # query once (the error still names the first offending device),
    # resolve every random choice (determinism contract: the per-device RNG
    # draws the tune-in offset first, then the loss seed -- and is skipped
    # entirely when neither draw can be observed, which leaves the drawn
    # values bit-identical), and partition devices into lossless replay
    # groups and native lossy indices.
    # ------------------------------------------------------------------
    offsets: List[int] = [0] * len(specs)
    loss_seeds: List[int] = [0] * len(specs)
    groups: Dict[_TraceKey, List[int]] = {}
    native_indices: List[int] = []
    checked_pairs: set = set()
    memory_modes: set = set()
    for index, spec in enumerate(specs):
        pair = (spec.source, spec.target)
        if pair not in checked_pairs:
            if spec.source not in network or spec.target not in network:
                raise ValueError(
                    f"device {spec.device_id}: query {spec.source}->{spec.target} "
                    f"references nodes outside network {network.name!r}"
                )
            checked_pairs.add(pair)
        memory_modes.add(spec.memory_bound)
        explicit_tune_in = (
            spec.tune_in_offset is not None or spec.tune_in_fraction is not None
        )
        needs_loss_seed = spec.loss_seed is None and spec.loss_rate != 0.0
        rng = (
            random.Random(seed * 1_000_003 + index + 1)
            if (not explicit_tune_in or needs_loss_seed)
            else None
        )
        offsets[index] = _resolve_tune_in(spec, rng, total)
        if spec.loss_seed is not None:
            loss_seeds[index] = spec.loss_seed
        elif needs_loss_seed:
            loss_seeds[index] = rng.randrange(2**31)
        if spec.loss_rate == 0.0:
            groups.setdefault(
                (spec.source, spec.target, spec.memory_bound), []
            ).append(index)
        else:
            native_indices.append(index)

    # One client per memory mode present in the fleet, created up front so
    # the parallel phase only reads shared state; a memory-bound client on a
    # scheme without Section 6.1 support raises here, before any work runs.
    clients: Dict[bool, AirClient] = {
        memory_bound: scheme.client(
            options=base_options.replace(memory_bound=memory_bound, loss_rate=0.0)
        )
        for memory_bound in sorted(memory_modes)
    }

    def client_for(memory_bound: bool) -> AirClient:
        return clients[memory_bound]

    # ------------------------------------------------------------------
    # Probe phase: one real session per distinct lossless trace key, probed
    # at the first device of that key in device order (the dict preserves
    # first-seen order).  The probe set and every probe input are fixed
    # before any probe runs, so the probes themselves fan out over the pool
    # without affecting determinism -- which matters when most queries are
    # distinct and probing, not replay, dominates the wall clock.
    # ------------------------------------------------------------------
    probe_items: List[Tuple[_TraceKey, int]] = [
        (key, indices[0]) for key, indices in groups.items()
    ]

    def probe(item: int) -> Tuple[SessionTrace, QueryResult]:
        _, index = probe_items[item]
        spec = specs[index]
        session = RecordingSession(cycle, offsets[index])
        result = client_for(spec.memory_bound).query(
            spec.source, spec.target, session=session
        )
        return session.trace(), result

    traces: Dict[_TraceKey, Tuple[SessionTrace, QueryResult]] = {}
    for (key, _), recorded in zip(
        probe_items, run_indexed(probe, len(probe_items), concurrency)
    ):
        traces[key] = recorded
    run.probes = len(traces)

    # ------------------------------------------------------------------
    # Replay phase: bulk array passes per group (inline -- the kernel is
    # pure numpy arithmetic, a worker pool would only add handoff cost).
    # ------------------------------------------------------------------
    if groups:
        layout = cycle.compiled_layout()
        offsets_arr = np.asarray(offsets, dtype=np.int64)
        for key, indices in groups.items():
            trace, probe_result = traces[key]
            table = TraceTable.compile(trace, layout)
            group_indices = np.asarray(indices, dtype=np.int64)
            group_offsets = offsets_arr[group_indices]
            replayed = replay_trace_bulk(table, layout, group_offsets)
            truths = {specs[i].true_distance for i in indices}
            if len(truths) == 1:
                # Common case: one ground truth per query -> one comparison.
                mismatches = _is_mismatch(probe_result.distance, truths.pop())
            else:
                mismatches = np.fromiter(
                    (
                        _is_mismatch(probe_result.distance, specs[i].true_distance)
                        for i in indices
                    ),
                    dtype=bool,
                    count=len(indices),
                )
            run.record_replay_group(
                indices=group_indices,
                offsets=group_offsets,
                tuning_packets=replayed.tuning_packets,
                latencies=replayed.access_latency_packets,
                distance=probe_result.distance,
                found=probe_result.found,
                mismatches=mismatches,
                peak_memory_bytes=probe_result.metrics.peak_memory_bytes,
                cpu_seconds=probe_result.metrics.cpu_seconds,
                extra_id=run.register_extra(probe_result.metrics.extra, copy=True),
            )
    run.replays = sum(len(indices) for indices in groups.values())

    # ------------------------------------------------------------------
    # Native phase (parallelizable: every input was pre-drawn; results come
    # back in index order and are scattered into the columns serially).
    # ------------------------------------------------------------------
    def process_native(item: int) -> QueryResult:
        index = native_indices[item]
        spec = specs[index]
        session = ClientSession(
            cycle, offsets[index], PacketLossModel(spec.loss_rate, seed=loss_seeds[index])
        )
        return client_for(spec.memory_bound).query(
            spec.source, spec.target, session=session
        )

    for index, result in zip(
        native_indices,
        run_indexed(process_native, len(native_indices), concurrency, chunk_size),
    ):
        run.record_device(
            index=index,
            offset=offsets[index],
            distance=result.distance,
            found=result.found,
            replay=False,
            metrics=result.metrics,
            mismatch=_is_mismatch(result.distance, specs[index].true_distance),
            extra_id=run.register_extra(result.metrics.extra, copy=False),
        )
    run.natives = len(native_indices)
    run.wall_seconds = time.perf_counter() - started
    return run
