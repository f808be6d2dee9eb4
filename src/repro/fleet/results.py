"""Aggregated outcome of a fleet simulation, stored columnarly.

A million-device fleet cannot afford one :class:`DeviceOutcome` object per
device on the hot path, so :class:`FleetRun` keeps its per-device results as
flat index-addressed numpy columns: the simulator scatters whole replay groups into the columns with
vectorized writes, and the aggregate views -- nearest-rank percentiles,
means, per-fleet energy -- run as bulk array passes over the columns.  The
object-level API is preserved: :attr:`FleetRun.outcomes` materializes the
:class:`DeviceOutcome` list lazily (and caches it), so reporting and test
code keeps iterating devices exactly as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.air.base import MISMATCH_RTOL
from repro.broadcast.device import CHANNEL_2MBPS, ChannelRate, DeviceProfile, J2ME_CLAMSHELL
from repro.broadcast.metrics import ClientMetrics

from repro.fleet.devices import DeviceSpec
from repro.stats import percentile

__all__ = ["DeviceOutcome", "FleetRun", "percentile"]


@dataclass(frozen=True)
class DeviceOutcome:
    """One device's result: the answer and its channel/compute cost.

    ``mode`` records how the outcome was produced: ``"replay"`` for the
    shared-session fast path (lossless devices) or ``"native"`` for a full
    packet-by-packet simulation (lossy devices).
    """

    spec: DeviceSpec
    tune_in_offset: int
    distance: float
    found: bool
    mode: str
    metrics: ClientMetrics
    mismatch: bool = False


#: :class:`ClientMetrics` field -> column name, for the aggregate views.
_METRIC_COLUMNS = {
    "tuning_time_packets": "tuning",
    "access_latency_packets": "latency",
    "peak_memory_bytes": "peak_memory",
    "cpu_seconds": "cpu",
    "lost_packets": "lost",
}


class _OutcomeColumns:
    """Index-addressed flat storage of per-device outcome fields.

    One slot per device, in device order: typed arrays, so group writes are
    fancy-index scatters.  ``extra_id`` indexes into the run's shared table of
    ``metrics.extra`` source dicts, so a replay group of 100k devices stores
    one dict, not 100k copies.
    """

    __slots__ = (
        "count",
        "offsets",
        "tuning",
        "latency",
        "peak_memory",
        "cpu",
        "lost",
        "distance",
        "found",
        "mismatch",
        "replay",
        "extra_id",
    )

    def __init__(self, count: int) -> None:
        self.count = count
        self.offsets = np.zeros(count, dtype=np.int64)
        self.tuning = np.zeros(count, dtype=np.int64)
        self.latency = np.zeros(count, dtype=np.int64)
        self.peak_memory = np.zeros(count, dtype=np.int64)
        self.cpu = np.zeros(count, dtype=np.float64)
        self.lost = np.zeros(count, dtype=np.int64)
        self.distance = np.zeros(count, dtype=np.float64)
        self.found = np.zeros(count, dtype=bool)
        self.mismatch = np.zeros(count, dtype=bool)
        self.replay = np.zeros(count, dtype=bool)
        self.extra_id = np.full(count, -1, dtype=np.int64)


class FleetRun:
    """Aggregated outcome of one fleet over one broadcast cycle.

    Constructed empty by the simulator, sized with :meth:`allocate`, then
    filled through the columnar recorders (:meth:`record_replay_group` for
    whole bulk-replayed groups, :meth:`record_device` for one device, and
    :meth:`record_mismatches` for the whole fleet at once).  All
    aggregate methods read the flat columns directly; per-device
    :class:`DeviceOutcome` objects exist only once :attr:`outcomes` is
    touched.
    """

    def __init__(self, scheme: str, concurrency: int = 1) -> None:
        self.scheme = scheme
        #: Distinct probe sessions actually simulated end to end.
        self.probes = 0
        #: Devices served by trace replay.
        self.replays = 0
        #: Devices simulated natively (lossy channels).
        self.natives = 0
        self.concurrency = concurrency
        self.wall_seconds = 0.0
        self.cycle_packets = 0
        self._specs: List[DeviceSpec] = []
        self._columns: Optional[_OutcomeColumns] = None
        #: ``extra_id`` -> ``(source_dict, copy_on_materialize)``.
        self._extra_sources: List[Tuple[Dict[str, float], bool]] = []
        self._outcomes: Optional[List[DeviceOutcome]] = None

    # ------------------------------------------------------------------
    # Columnar recording (simulator-facing)
    # ------------------------------------------------------------------
    def allocate(self, specs: Sequence[DeviceSpec]) -> None:
        """Size the columns for one slot per device, in device order."""
        self._specs = list(specs)
        self._columns = _OutcomeColumns(len(self._specs))
        self._outcomes = None

    def register_extra(self, source: Dict[str, float], copy: bool) -> int:
        """Intern one ``metrics.extra`` source dict; returns its ``extra_id``.

        ``copy=True`` materializes a fresh copy per device (the replay path,
        where devices must not share the probe's dict); ``copy=False`` hands
        the dict through as-is (the native path, whose dict is the session's
        own).
        """
        self._extra_sources.append((source, copy))
        return len(self._extra_sources) - 1

    def record_replay_group(
        self,
        indices: Any,
        offsets: Any,
        tuning_packets: int,
        latencies: Any,
        distance: float,
        found: bool,
        peak_memory_bytes: int,
        cpu_seconds: float,
        extra_id: int,
    ) -> None:
        """Scatter one bulk-replayed group into the columns.

        ``indices``/``offsets``/``latencies`` are aligned arrays (device
        index, tune-in offset, access latency); the remaining fields are the
        probe's, shared by the whole group.
        """
        columns = self._columns
        assert columns is not None, "allocate() must run before recording"
        self._outcomes = None
        columns.offsets[indices] = offsets
        columns.tuning[indices] = tuning_packets
        columns.latency[indices] = latencies
        columns.peak_memory[indices] = peak_memory_bytes
        columns.cpu[indices] = cpu_seconds
        columns.distance[indices] = distance
        columns.found[indices] = found
        columns.replay[indices] = True
        columns.extra_id[indices] = extra_id

    def record_device(
        self,
        index: int,
        offset: int,
        distance: float,
        found: bool,
        replay: bool,
        metrics: ClientMetrics,
        extra_id: int,
    ) -> None:
        """Record one device's outcome (the native path)."""
        columns = self._columns
        assert columns is not None, "allocate() must run before recording"
        self._outcomes = None
        columns.offsets[index] = offset
        columns.tuning[index] = metrics.tuning_time_packets
        columns.latency[index] = metrics.access_latency_packets
        columns.peak_memory[index] = metrics.peak_memory_bytes
        columns.cpu[index] = metrics.cpu_seconds
        columns.lost[index] = metrics.lost_packets
        columns.distance[index] = distance
        columns.found[index] = found
        columns.replay[index] = replay
        columns.extra_id[index] = extra_id

    def record_mismatches(self, truths: Any) -> None:
        """Flag every device whose recorded answer disagrees with its truth.

        ``truths`` is a per-device ``float64`` column, NaN where a device has
        no ground truth.  The rule is :func:`repro.air.base.is_mismatch` as
        one array pass: NaN compares false, so such devices never count.
        Runs after every answer is recorded.
        """
        columns = self._columns
        assert columns is not None, "allocate() must run before recording"
        self._outcomes = None
        with np.errstate(invalid="ignore"):
            columns.mismatch[:] = np.abs(
                columns.distance - truths
            ) > MISMATCH_RTOL * np.maximum(1.0, truths)

    # ------------------------------------------------------------------
    # Object-level view (lazy)
    # ------------------------------------------------------------------
    def _materialize_extra(self, extra_id: int) -> Dict[str, float]:
        if extra_id < 0:
            return {}
        source, copy = self._extra_sources[extra_id]
        return dict(source) if copy else source

    @property
    def outcomes(self) -> List[DeviceOutcome]:
        """Per-device outcomes, in device order (materialized lazily)."""
        if self._outcomes is None:
            columns = self._columns
            if columns is None:
                self._outcomes = []
                return self._outcomes
            rows = zip(
                self._specs,
                columns.offsets.tolist(),
                columns.tuning.tolist(),
                columns.latency.tolist(),
                columns.peak_memory.tolist(),
                columns.cpu.tolist(),
                columns.lost.tolist(),
                columns.distance.tolist(),
                columns.found.tolist(),
                columns.mismatch.tolist(),
                columns.replay.tolist(),
                columns.extra_id.tolist(),
            )
            self._outcomes = [
                DeviceOutcome(
                    spec=spec,
                    tune_in_offset=offset,
                    distance=distance,
                    found=found,
                    mode="replay" if replay else "native",
                    metrics=ClientMetrics(
                        tuning_time_packets=tuning,
                        access_latency_packets=latency,
                        peak_memory_bytes=peak,
                        cpu_seconds=cpu,
                        lost_packets=lost,
                        extra=self._materialize_extra(extra_id),
                    ),
                    mismatch=mismatch,
                )
                for (
                    spec,
                    offset,
                    tuning,
                    latency,
                    peak,
                    cpu,
                    lost,
                    distance,
                    found,
                    mismatch,
                    replay,
                    extra_id,
                ) in rows
            ]
        return self._outcomes

    # ------------------------------------------------------------------
    # Counts and throughput
    # ------------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self._specs)

    @property
    def mismatches(self) -> int:
        """Devices whose on-air answer disagreed with the ground truth."""
        if self._columns is None:
            return 0
        return int(np.count_nonzero(self._columns.mismatch))

    @property
    def devices_per_second(self) -> float:
        """Simulation throughput (wall clock, so *not* deterministic)."""
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.num_devices / self.wall_seconds

    # ------------------------------------------------------------------
    # Aggregates (bulk array passes over the columns)
    # ------------------------------------------------------------------
    def _column(self, metric: str):
        try:
            name = _METRIC_COLUMNS[metric]
        except KeyError:
            raise AttributeError(
                f"unknown ClientMetrics field {metric!r} "
                f"(one of {sorted(_METRIC_COLUMNS)})"
            ) from None
        if self._columns is None:
            return np.zeros(0, dtype=np.int64)
        return getattr(self._columns, name)

    def percentile(self, metric: str, q: float) -> float:
        """Nearest-rank percentile of a :class:`ClientMetrics` field.

        Same definition as :func:`repro.stats.percentile`, computed as one
        vectorized sort over the column.
        """
        column = self._column(metric)
        size = len(column)
        if size == 0:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        ordered = np.sort(column.astype(np.float64))
        rank = max(1, math.ceil(size * q / 100.0))
        return float(ordered[min(rank, size) - 1])

    def latency_percentiles(self, qs: Sequence[float] = (50, 90, 99)) -> Dict[float, float]:
        return {q: self.percentile("access_latency_packets", q) for q in qs}

    def tuning_percentiles(self, qs: Sequence[float] = (50, 90, 99)) -> Dict[float, float]:
        return {q: self.percentile("tuning_time_packets", q) for q in qs}

    def mean(self, metric: str) -> float:
        column = self._column(metric)
        size = len(column)
        if size == 0:
            return 0.0
        return float(column.astype(np.float64).sum() / size)

    def mean_energy_joules(
        self,
        device: Optional[DeviceProfile] = None,
        rate: ChannelRate = CHANNEL_2MBPS,
    ) -> float:
        """Average per-query energy across the fleet.

        Vectorized over the flat tuning/latency/CPU columns, with the
        formula of :meth:`ClientMetrics.energy_joules`.
        """
        columns = self._columns
        if columns is None or columns.count == 0:
            return 0.0
        device = device or J2ME_CLAMSHELL
        packets_per_second = rate.packets_per_second
        receive_seconds = columns.tuning / packets_per_second
        sleep_seconds = np.maximum(
            0.0, columns.latency / packets_per_second - receive_seconds
        )
        energy = (
            receive_seconds * device.receive_watts
            + sleep_seconds * device.sleep_watts
            + columns.cpu * device.cpu_watts
        )
        return float(energy.sum() / columns.count)

    def signature(self) -> Tuple[Tuple, ...]:
        """Per-device deterministic fields, in device order.

        Two runs of the same fleet must produce identical signatures no
        matter the ``concurrency`` -- this is what the bit-identical tests
        and the scaling benchmark compare.
        """
        columns = self._columns
        if columns is None:
            return ()
        infinity = float("inf")
        return tuple(
            (
                spec.device_id,
                round(distance, 9) if found else infinity,
                tuning,
                latency,
                peak,
                lost,
                mismatch,
            )
            for spec, distance, found, tuning, latency, peak, lost, mismatch in zip(
                self._specs,
                columns.distance.tolist(),
                columns.found.tolist(),
                columns.tuning.tolist(),
                columns.latency.tolist(),
                columns.peak_memory.tolist(),
                columns.lost.tolist(),
                columns.mismatch.tolist(),
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"FleetRun(scheme={self.scheme!r}, devices={self.num_devices}, "
            f"probes={self.probes}, replays={self.replays}, natives={self.natives}, "
            f"mismatches={self.mismatches})"
        )

