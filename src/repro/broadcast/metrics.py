"""Performance factor accounting (paper Section 3.1).

The paper evaluates every method on five factors:

* **tuning time** -- packets received (determines energy),
* **memory** -- peak bytes held at the client,
* **access latency** -- packets elapsed between posing the query and
  receiving the last needed packet,
* **CPU time** -- client-side computation, and
* **pre-computation time** -- server-side, one-off.

:class:`ClientMetrics` records the first four for one query;
:class:`ServerMetrics` records the last together with the cycle size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.broadcast.device import ChannelRate, DeviceProfile

__all__ = ["MemoryTracker", "ClientMetrics", "ServerMetrics"]


class MemoryTracker:
    """Tracks the client's working-set size and its peak.

    The client allocates bytes when it retains received data or builds local
    structures, and releases bytes when it discards them (e.g. after turning
    a region into super-edges, Section 6.1).
    """

    def __init__(self) -> None:
        self._current = 0
        self._peak = 0

    def allocate(self, num_bytes: int) -> None:
        """Account for ``num_bytes`` newly held by the client."""
        if num_bytes < 0:
            raise ValueError("allocate() takes a non-negative byte count")
        self._current += num_bytes
        self._peak = max(self._peak, self._current)

    def release(self, num_bytes: int) -> None:
        """Account for ``num_bytes`` no longer held by the client."""
        if num_bytes < 0:
            raise ValueError("release() takes a non-negative byte count")
        self._current = max(0, self._current - num_bytes)

    @property
    def current_bytes(self) -> int:
        """Bytes currently held."""
        return self._current

    @property
    def peak_bytes(self) -> int:
        """Largest working set observed so far."""
        return self._peak


@dataclass
class ClientMetrics:
    """Per-query client-side measurements."""

    tuning_time_packets: int = 0
    access_latency_packets: int = 0
    peak_memory_bytes: int = 0
    cpu_seconds: float = 0.0
    lost_packets: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    def tuning_time_seconds(self, rate: ChannelRate) -> float:
        """Time spent with the radio in receive state."""
        return rate.packets_to_seconds(self.tuning_time_packets)

    def access_latency_seconds(self, rate: ChannelRate) -> float:
        """Wall-clock responsiveness of the query at the given channel rate."""
        return rate.packets_to_seconds(self.access_latency_packets)

    def energy_joules(self, device: DeviceProfile, rate: ChannelRate) -> float:
        """Total energy charged to the device for this query."""
        return device.energy_joules(
            self.tuning_time_packets,
            self.access_latency_packets,
            self.cpu_seconds,
            rate,
        )

    def fits_device(self, device: DeviceProfile) -> bool:
        """Whether the peak working set fits the device heap (Table 2)."""
        return device.fits_in_heap(self.peak_memory_bytes)

    def merge_max(self, other: "ClientMetrics") -> "ClientMetrics":
        """Element-wise maximum (used when aggregating worst-case behaviour)."""
        return ClientMetrics(
            tuning_time_packets=max(self.tuning_time_packets, other.tuning_time_packets),
            access_latency_packets=max(
                self.access_latency_packets, other.access_latency_packets
            ),
            peak_memory_bytes=max(self.peak_memory_bytes, other.peak_memory_bytes),
            cpu_seconds=max(self.cpu_seconds, other.cpu_seconds),
            lost_packets=max(self.lost_packets, other.lost_packets),
        )


@dataclass
class ServerMetrics:
    """Server-side, one-off measurements for one broadcast scheme."""

    scheme: str
    cycle_packets: int
    cycle_bytes: int
    precomputation_seconds: float
    index_packets: int = 0
    data_packets: int = 0
    notes: Optional[str] = None
    #: Incremental cycle refreshes that led to this scheme instance (dynamic
    #: networks) and the total server time they cost; both stay zero for a
    #: scheme built from scratch and never refreshed since.
    refreshes: int = 0
    refresh_seconds: float = 0.0

    def cycle_seconds(self, rate: ChannelRate) -> float:
        """Duration of one broadcast cycle at the given channel rate."""
        return rate.packets_to_seconds(self.cycle_packets)


def average_metrics(metrics: list) -> ClientMetrics:
    """Arithmetic mean of a list of :class:`ClientMetrics` (empty -> zeros)."""
    if not metrics:
        return ClientMetrics()
    count = len(metrics)
    return ClientMetrics(
        tuning_time_packets=int(round(sum(m.tuning_time_packets for m in metrics) / count)),
        access_latency_packets=int(
            round(sum(m.access_latency_packets for m in metrics) / count)
        ),
        peak_memory_bytes=int(round(sum(m.peak_memory_bytes for m in metrics) / count)),
        cpu_seconds=sum(m.cpu_seconds for m in metrics) / count,
        lost_packets=int(round(sum(m.lost_packets for m in metrics) / count)),
    )
