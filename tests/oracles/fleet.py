"""Per-device reference for :func:`repro.fleet.simulator.partition_fleet`.

The production partition reads the fleet one :class:`DeviceSpec` field at a
time and resolves offsets, groups and mismatches in array passes.
:func:`partition_fleet` here is the loop it must reproduce: one pass over
the devices in device order that validates each distinct query once,
resolves the tune-in offset and loss seed from the device's own RNG, and
appends the device to its lossless replay group or to the native list.
:func:`fleet_signature` builds a whole fleet's
:meth:`repro.fleet.results.FleetRun.signature` from that partition, one
device at a time (scalar replay for lossless devices, a native session for
lossy ones).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from oracles.replay import replay_plan, replay_trace
from repro.air.base import AirIndexScheme, ClientOptions, is_mismatch
from repro.broadcast.channel import ClientSession, PacketLossModel
from repro.broadcast.replay import RecordingSession
from repro.fleet.devices import DeviceSpec
from repro.network.graph import RoadNetwork

TraceKey = Tuple[int, int, bool]


@dataclass(frozen=True)
class Partition:
    """The oracle's partition, in plain Python values."""

    offsets: Tuple[int, ...]
    groups: Tuple[Tuple[TraceKey, Tuple[int, ...]], ...]
    native_indices: Tuple[int, ...]
    native_loss_seeds: Tuple[int, ...]
    memory_modes: Tuple[bool, ...]


def resolve_tune_in(spec: DeviceSpec, rng: Optional[random.Random], total: int) -> int:
    if spec.tune_in_offset is not None:
        return spec.tune_in_offset % total
    if spec.tune_in_fraction is not None:
        return int(spec.tune_in_fraction * total) % total
    assert rng is not None  # callers create the RNG whenever a draw is due
    return rng.randrange(total)


def partition_fleet(
    specs: Sequence[DeviceSpec], network: RoadNetwork, total: int, seed: int
) -> Partition:
    """One pass over the fleet in device order (the simulator's contract)."""
    offsets: List[int] = [0] * len(specs)
    loss_seeds: List[int] = [0] * len(specs)
    groups: Dict[TraceKey, List[int]] = {}
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
        offsets[index] = resolve_tune_in(spec, rng, total)
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
    return Partition(
        offsets=tuple(offsets),
        groups=tuple((key, tuple(indices)) for key, indices in groups.items()),
        native_indices=tuple(native_indices),
        native_loss_seeds=tuple(loss_seeds[index] for index in native_indices),
        memory_modes=tuple(sorted(memory_modes)),
    )


def fleet_signature(
    scheme: AirIndexScheme, specs: Sequence[DeviceSpec], seed: int
) -> Tuple[Tuple, ...]:
    """``FleetRun.signature()`` of the fleet, one device at a time."""
    cycle = scheme.cycle
    partition = partition_fleet(specs, scheme.network, cycle.total_packets, seed)
    clients = {
        memory_bound: scheme.client(options=ClientOptions(memory_bound=memory_bound))
        for memory_bound in partition.memory_modes
    }
    rows: Dict[int, Tuple] = {}
    for (source, target, memory_bound), indices in partition.groups:
        session = RecordingSession(cycle, partition.offsets[indices[0]])
        probe = clients[memory_bound].query(source, target, session=session)
        trace = session.trace()
        plan = replay_plan(trace)
        for index in indices:
            replayed = replay_trace(trace, cycle, partition.offsets[index], plan)
            rows[index] = (
                probe.distance,
                probe.found,
                replayed.tuning_packets,
                replayed.access_latency_packets,
                probe.metrics.peak_memory_bytes,
                0,
            )
    for index, loss_seed in zip(partition.native_indices, partition.native_loss_seeds):
        spec = specs[index]
        loss = PacketLossModel(spec.loss_rate, seed=loss_seed)
        session = ClientSession(cycle, partition.offsets[index], loss)
        client = clients[spec.memory_bound]
        result = client.query(spec.source, spec.target, session=session)
        metrics = result.metrics
        rows[index] = (
            result.distance,
            result.found,
            metrics.tuning_time_packets,
            metrics.access_latency_packets,
            metrics.peak_memory_bytes,
            metrics.lost_packets,
        )
    signature = []
    for index, spec in enumerate(specs):
        distance, found, tuning, latency, peak, lost = rows[index]
        signature.append(
            (
                spec.device_id,
                round(distance, 9) if found else float("inf"),
                tuning,
                latency,
                peak,
                lost,
                is_mismatch(distance, spec.true_distance),
            )
        )
    return tuple(signature)
