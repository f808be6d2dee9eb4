"""Packets and segments of the broadcast cycle.

The broadcast cycle consists of fixed-size packets, "the smallest information
unit transmitted" (paper Section 2.2).  The paper fixes the packet size at
128 bytes in the evaluation (Section 7).  We model the cycle one level above
individual packets: a *segment* is a contiguous run of packets carrying one
logical unit (an index copy, a region's cross-border data, a local NR index,
...), sized in bytes and converted to packets by ceiling division.

Every packet, regardless of its contents, carries a small header with a
pointer (offset) to the next index copy in the cycle (paper Section 4.1);
:data:`PACKET_HEADER_BYTES` accounts for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, Optional

__all__ = [
    "PACKET_SIZE_BYTES",
    "PACKET_HEADER_BYTES",
    "PACKET_PAYLOAD_BYTES",
    "Segment",
    "SegmentKind",
    "packets_for_bytes",
]

#: Fixed packet size used throughout the paper's evaluation (Section 7).
PACKET_SIZE_BYTES = 128

#: Per-packet header: 4-byte offset to the next index copy (Section 4.1)
#: plus a 4-byte packet sequence number / checksum.
PACKET_HEADER_BYTES = 8

#: Payload capacity of one packet.
PACKET_PAYLOAD_BYTES = PACKET_SIZE_BYTES - PACKET_HEADER_BYTES


class SegmentKind(enum.Enum):
    """What a segment of the broadcast cycle carries."""

    #: Global air index (EB's two components, or a full-cycle method's index).
    INDEX = "index"
    #: NR's per-region local index Am.
    LOCAL_INDEX = "local_index"
    #: Adjacency lists of a region's cross-border nodes.
    REGION_CROSS_BORDER = "region_cross_border"
    #: Adjacency lists of a region's local (non cross-border) nodes.
    REGION_LOCAL = "region_local"
    #: Adjacency lists without any region structure (full-cycle methods).
    NETWORK_DATA = "network_data"
    #: Pre-computed per-node/per-edge information (flags, vectors, quad-trees).
    PRECOMPUTED = "precomputed"


@dataclass
class Segment:
    """A contiguous run of packets carrying one logical unit.

    Attributes
    ----------
    name:
        Unique name within its cycle (e.g. ``"region-7-cross"``).
    kind:
        The :class:`SegmentKind` of the content.
    size_bytes:
        Payload bytes carried (before packetization).
    region:
        Region index this segment belongs to, when applicable.
    payload:
        Arbitrary server-side object describing the content; clients read it
        only after "receiving" the segment through a
        :class:`~repro.broadcast.channel.ClientSession`, which charges the
        corresponding tuning/latency/memory costs.
    metadata:
        Free-form annotations (e.g. which index copy this is).
    """

    name: str
    kind: SegmentKind
    size_bytes: int
    region: Optional[int] = None
    payload: Any = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    @cached_property
    def num_packets(self) -> int:
        """Number of packets the segment occupies on the air (computed on
        first read; a segment's size never changes)."""
        return packets_for_bytes(self.size_bytes)


def packets_for_bytes(size_bytes: int) -> int:
    """Packets needed to carry ``size_bytes`` of payload (at least 1)."""
    if size_bytes < 0:
        raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
    return max(1, -(-size_bytes // PACKET_PAYLOAD_BYTES))
