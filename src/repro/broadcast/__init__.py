"""Wireless broadcast substrate: packets, cycles, devices, channel simulator."""

from repro.broadcast.packet import PACKET_SIZE_BYTES, Segment, SegmentKind, packets_for_bytes
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.interleave import interleave_one_m, optimal_m
from repro.broadcast.device import (
    CHANNEL_2MBPS,
    CHANNEL_384KBPS,
    ChannelRate,
    DeviceProfile,
    J2ME_CLAMSHELL,
)
from repro.broadcast.channel import BroadcastChannel, ClientSession, PacketLossModel
from repro.broadcast.metrics import ClientMetrics, MemoryTracker, ServerMetrics
from repro.broadcast.replay import RecordingSession, SessionTrace
from repro.broadcast.replay_bulk import (
    BulkReplayOutcome,
    CycleLayout,
    TraceTable,
    replay_trace_bulk,
)

__all__ = [
    "BulkReplayOutcome",
    "CycleLayout",
    "TraceTable",
    "replay_trace_bulk",
    "PACKET_SIZE_BYTES",
    "BroadcastChannel",
    "BroadcastCycle",
    "CHANNEL_2MBPS",
    "CHANNEL_384KBPS",
    "ChannelRate",
    "ClientMetrics",
    "ClientSession",
    "DeviceProfile",
    "J2ME_CLAMSHELL",
    "MemoryTracker",
    "PacketLossModel",
    "RecordingSession",
    "Segment",
    "SessionTrace",
    "SegmentKind",
    "ServerMetrics",
    "interleave_one_m",
    "optimal_m",
    "packets_for_bytes",
]
