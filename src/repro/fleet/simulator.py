"""Event-driven multi-client broadcast simulation.

One broadcast cycle, N devices.  The simulator partitions the fleet into

* **lossless** devices, served by the shared-session fast path: one real
  *probe* session per distinct ``(source, target, memory_bound)`` key
  materializes the packet stream (:mod:`repro.broadcast.replay`), and every
  device with that key replays it at its own tune-in offset.  The replay
  runs through the vectorized kernel
  (:func:`repro.broadcast.replay_bulk.replay_trace_bulk`): the trace compiles
  once into a columnar :class:`~repro.broadcast.replay_bulk.TraceTable` and
  the whole group's tuning/latency comes out of O(ops) array passes over
  the group's distinct tune-in offsets, so per-device Python cost vanishes;
  and
* **lossy** devices, simulated natively packet by packet (their Bernoulli
  loss draws are part of the result and cannot be shared).

The partition itself is columnar (:func:`partition_fleet`): one list
comprehension per :class:`DeviceSpec` field, then numpy passes resolve
tune-in offsets and group keys for the whole fleet (and, once every answer
is in, mismatches), and Python runs per device only where a per-device RNG
must be drawn.  Replay is pure array arithmetic and runs inline on the
calling thread; the worker pool is reserved for the phases that do real
simulation work (probe sessions and native lossy devices), where threads
actually pay off.

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
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.air.base import (
    MISMATCH_RTOL,
    AirClient,
    AirIndexScheme,
    ClientOptions,
    QueryResult,
)
from repro.broadcast.channel import ClientSession, PacketLossModel
from repro.broadcast.replay import RecordingSession, SessionTrace
from repro.broadcast.replay_bulk import TraceTable, replay_trace_bulk
from repro.concurrency import run_indexed

from repro.fleet.devices import DeviceSpec
from repro.fleet.results import FleetRun
from repro.network.graph import RoadNetwork

__all__ = ["FleetPartition", "partition_fleet", "simulate_fleet", "MISMATCH_RTOL"]

#: Trace cache key: everything that shapes a lossless session's behaviour.
_TraceKey = Tuple[int, int, bool]


@dataclass(frozen=True)
class FleetPartition:
    """Every per-device choice of a fleet, fixed before any session runs.

    ``offsets`` holds each device's tune-in offset within the cycle
    (``int64``, device order).  ``groups`` lists the lossless replay groups
    in first-seen order, each as its trace key and the ascending device
    indices sharing it; the first index is the group's probe.
    ``native_indices`` are the lossy devices in device order and
    ``native_loss_seeds`` their loss-model seeds, aligned with them.
    ``memory_modes`` are the distinct ``memory_bound`` flags of the fleet.
    """

    offsets: np.ndarray
    groups: Tuple[Tuple[_TraceKey, np.ndarray], ...]
    native_indices: Tuple[int, ...]
    native_loss_seeds: Tuple[int, ...]
    memory_modes: Tuple[bool, ...]


def _array(values: list, dtype) -> np.ndarray:
    """One list column as a typed array (``None`` reads as NaN in floats)."""
    return np.fromiter(values, dtype=dtype, count=len(values))


def partition_fleet(
    specs: Sequence[DeviceSpec], network: RoadNetwork, total: int, seed: int
) -> FleetPartition:
    """Validate a fleet and resolve every per-device choice, column at once.

    Each distinct node is checked against ``network`` once; the error names
    the first offending device in device order.  Tune-in offsets resolve in
    priority order: an explicit ``tune_in_offset`` (reduced modulo
    ``total``), a ``tune_in_fraction`` of the cycle, else a draw.  The
    determinism contract: device ``i``'s RNG is
    ``random.Random(seed * 1_000_003 + i + 1)``, drawing the tune-in offset
    first and then the loss seed; it is created only for devices that draw
    something, which leaves every drawn value unchanged.
    """
    count = len(specs)
    # Node -> dense code, numbered in first-seen order as the columns read.
    code_of: Dict[int, int] = defaultdict(lambda: len(code_of))
    source_codes = [code_of[spec.source] for spec in specs]
    target_codes = [code_of[spec.target] for spec in specs]
    unknown = {node for node in code_of if node not in network}
    if unknown:
        spec = next(
            spec for spec in specs if spec.source in unknown or spec.target in unknown
        )
        raise ValueError(
            f"device {spec.device_id}: query {spec.source}->{spec.target} "
            f"references nodes outside network {network.name!r}"
        )

    # Tune-in offsets: fractions first, explicit offsets override them.
    fractions = _array([spec.tune_in_fraction for spec in specs], np.float64)
    has_tune_in = ~np.isnan(fractions)  # a ``None`` fraction reads as NaN
    offsets = np.zeros(count, dtype=np.int64)
    offsets[has_tune_in] = (fractions[has_tune_in] * total).astype(np.int64) % total
    tune_in = [spec.tune_in_offset for spec in specs]
    if tune_in.count(None) != count:
        explicit = [index for index, offset in enumerate(tune_in) if offset is not None]
        # Reduced in Python: an explicit offset may exceed the int64 range.
        offsets[explicit] = [tune_in[index] % total for index in explicit]
        has_tune_in[explicit] = True

    # Per-device RNG draws, in device order, only where a draw is due.
    lossy = _array([spec.loss_rate for spec in specs], np.float64) != 0.0
    native_indices = np.flatnonzero(lossy).tolist()
    loss_seeds = [specs[index].loss_seed for index in native_indices]
    needs_loss_seed = {
        index for index, loss_seed in zip(native_indices, loss_seeds) if loss_seed is None
    }
    drawn_loss_seeds: Dict[int, int] = {}
    draws = needs_loss_seed.union(np.flatnonzero(~has_tune_in).tolist())
    for index in sorted(draws):
        rng = random.Random(seed * 1_000_003 + index + 1)
        if not has_tune_in[index]:
            offsets[index] = rng.randrange(total)
        if index in needs_loss_seed:
            drawn_loss_seeds[index] = rng.randrange(2**31)
    native_loss_seeds = tuple(
        drawn_loss_seeds[index] if loss_seed is None else loss_seed
        for index, loss_seed in zip(native_indices, loss_seeds)
    )

    # Lossless replay groups: one integer key per device (dense node codes
    # plus the memory flag), held in the narrowest dtype that fits so numpy
    # can radix-sort it.  A stable sort by key lines each group up in device
    # order, so a group's first member is its first-seen device -- its probe
    # -- and ordering groups by that member gives first-seen order.
    memory = _array([spec.memory_bound for spec in specs], bool)
    key_type = np.min_scalar_type(2 * len(code_of) ** 2)
    keys = (
        _array(source_codes, key_type) * len(code_of) + _array(target_codes, key_type)
    ) * 2 + memory.astype(key_type)
    lossless = np.flatnonzero(~lossy)
    members = lossless[np.argsort(keys[lossless], kind="stable")]
    starts = np.flatnonzero(np.diff(keys[members].astype(np.int64), prepend=-1))
    ends = np.append(starts[1:], len(members))
    groups = []
    for group in np.argsort(members[starts]):
        indices = members[starts[group] : ends[group]]
        probe = specs[int(indices[0])]
        groups.append(((probe.source, probe.target, probe.memory_bound), indices))

    return FleetPartition(
        offsets=offsets,
        groups=tuple(groups),
        native_indices=tuple(native_indices),
        native_loss_seeds=native_loss_seeds,
        memory_modes=tuple(np.unique(memory).tolist()),
    )


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

    partition = partition_fleet(specs, scheme.network, total, seed)
    offsets = partition.offsets

    # One client per memory mode present in the fleet, created up front so
    # the parallel phase only reads shared state; a memory-bound client on a
    # scheme without Section 6.1 support raises here, before any work runs.
    clients: Dict[bool, AirClient] = {
        memory_bound: scheme.client(
            options=base_options.replace(memory_bound=memory_bound, loss_rate=0.0)
        )
        for memory_bound in partition.memory_modes
    }

    # ------------------------------------------------------------------
    # Probe phase: one real session per distinct lossless trace key, probed
    # at the first device of that key in device order (the partition lists
    # groups in first-seen order).  The probe set and every probe input are
    # fixed before any probe runs, so the probes themselves fan out over the
    # pool without affecting determinism -- which matters when most queries
    # are distinct and probing, not replay, dominates the wall clock.
    # ------------------------------------------------------------------
    groups = partition.groups

    def probe(item: int) -> Tuple[SessionTrace, QueryResult]:
        (source, target, memory_bound), indices = groups[item]
        session = RecordingSession(cycle, int(offsets[indices[0]]))
        result = clients[memory_bound].query(source, target, session=session)
        return session.trace(), result

    traces = run_indexed(probe, len(groups), concurrency)
    run.probes = len(traces)

    # ------------------------------------------------------------------
    # Replay phase: bulk array passes per group (inline -- the kernel is
    # pure numpy arithmetic, a worker pool would only add handoff cost).
    # ------------------------------------------------------------------
    if groups:
        layout = cycle.compiled_layout()
        for (_, group_indices), (trace, probe_result) in zip(groups, traces):
            table = TraceTable.compile(trace, layout)
            group_offsets = offsets[group_indices]
            replayed = replay_trace_bulk(table, layout, group_offsets)
            run.record_replay_group(
                indices=group_indices,
                offsets=group_offsets,
                tuning_packets=replayed.tuning_packets,
                latencies=replayed.access_latency_packets,
                distance=probe_result.distance,
                found=probe_result.found,
                peak_memory_bytes=probe_result.metrics.peak_memory_bytes,
                cpu_seconds=probe_result.metrics.cpu_seconds,
                extra_id=run.register_extra(probe_result.metrics.extra, copy=True),
            )
    run.replays = sum(len(indices) for _, indices in groups)

    # ------------------------------------------------------------------
    # Native phase (parallelizable: every input was pre-drawn; results come
    # back in index order and are scattered into the columns serially).
    # ------------------------------------------------------------------
    native_indices = partition.native_indices

    def process_native(item: int) -> QueryResult:
        index = native_indices[item]
        spec = specs[index]
        loss = PacketLossModel(spec.loss_rate, seed=partition.native_loss_seeds[item])
        session = ClientSession(cycle, int(offsets[index]), loss)
        return clients[spec.memory_bound].query(
            spec.source, spec.target, session=session
        )

    for index, result in zip(
        native_indices,
        run_indexed(process_native, len(native_indices), concurrency, chunk_size),
    ):
        run.record_device(
            index=index,
            offset=int(offsets[index]),
            distance=result.distance,
            found=result.found,
            replay=False,
            metrics=result.metrics,
            extra_id=run.register_extra(result.metrics.extra, copy=False),
        )
    run.natives = len(native_indices)
    # ``None`` ground truths become NaN, which never counts as a mismatch.
    run.record_mismatches(_array([spec.true_distance for spec in specs], np.float64))
    run.wall_seconds = time.perf_counter() - started
    return run
