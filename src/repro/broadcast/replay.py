"""Shared-session fast path: record one tuning session, replay it per device.

A broadcast cycle serves an unbounded audience, and on a loss-free channel a
client's protocol is *data independent of time*: which packets it receives is
decided by its query (and, for the handful of position-dependent choices such
as "the next index copy on the air", by the segment boundary it tuned in
behind), never by the wall clock.  The fleet simulator exploits that: it runs
one real *probe* session per distinct query, materializes the probe's packet
stream as a :class:`SessionTrace`, and then *replays* the trace for every
further device with pure packet arithmetic -- no per-packet loops, no loss
draws, no local shortest path computation.  The replay itself runs for a
whole group of devices at once in :mod:`repro.broadcast.replay_bulk`; the
one-device-at-a-time form is the test oracle (``tests/oracles/replay.py``).

Replay semantics (documented contract, asserted by the tests):

* **Tuning time** is exact: it is the number of packets received, which is a
  property of the trace's reception multiset, not of the replay order.
* **Access latency** is exact for the full-cycle schemes (DJ, LD, AF, SPQ,
  whose reception order is the rotation of one fixed segment sequence): the
  replay rotates the recorded stream to start at the reception that is next
  on the air after the device's tune-in offset.  For selective-tuning schemes
  (EB, NR, HiTi) it is not exact, and the error is not bounded by the
  spacing between index copies: the probe's concrete index copy, and the
  reception order that copy fixes, are replayed instead of the ones a
  session tuning in at the device's offset would see.  Measured against
  native sessions on the mixed-1k network (20 pairs x 15 offsets), the
  mean absolute error is 157 / 172 / 159 packets for NR / EB / HiTi, and
  NR's maximum is 1,232 packets on a 629-packet cycle; ROADMAP item 1
  records these figures and the plan to make the replay exact.
* Replay is only valid for **lossless** sessions; lossy devices must be
  simulated natively (their per-packet Bernoulli draws are part of the
  result).  The replay refuses traces recorded under loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.broadcast.channel import ClientSession, PacketLossModel
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.packet import Segment

__all__ = [
    "OpKind",
    "TraceOp",
    "SessionTrace",
    "RecordingSession",
]


class OpKind(Enum):
    """Kinds of elementary channel operations a client performs."""

    #: Read the packet currently on the air (used to find the next index).
    ONE_PACKET = "one-packet"
    #: Receive selected packet offsets of a named segment.
    SEGMENT = "segment"


@dataclass(frozen=True)
class TraceOp:
    """One recorded channel operation.

    ``SEGMENT`` ops are compacted to what replay arithmetic needs --
    ``packet_count`` (packets listened to) and ``last_offset`` (the final
    listened packet offset within the segment, which decides the end
    position) -- rather than the full offset list, so a trace stays O(ops)
    in memory even for whole-segment receptions.  ``anchor`` is the cycle
    offset at which the operation's first listened packet is broadcast, used
    to rotate the stream to a device's tune-in position.
    """

    kind: OpKind
    name: Optional[str] = None
    packet_count: int = 0
    last_offset: int = 0
    anchor: int = 0

    @property
    def packets(self) -> int:
        """Packets the radio listened to for this operation (retries, if the
        recording session was lossy, included)."""
        return 1 if self.kind is OpKind.ONE_PACKET else self.packet_count


@dataclass(frozen=True)
class SessionTrace:
    """The materialized packet stream of one recorded tuning session."""

    ops: Tuple[TraceOp, ...]
    #: Cycle length the trace was recorded against (guards stale replays).
    cycle_packets: int
    #: Loss rate of the recording session; replay requires ``0.0``.
    loss_rate: float = 0.0

    @cached_property
    def tuning_packets(self) -> int:
        """Total packets received by the recorded session.

        Cached: a fleet replays one trace for thousands of devices, and the
        sum is a pure function of the frozen op tuple.
        """
        return sum(op.packets for op in self.ops)


class RecordingSession(ClientSession):
    """A :class:`ClientSession` that also materializes its packet stream.

    Every elementary operation behaves exactly as in the base class (the
    probe is a *real* simulation); the session additionally appends one
    :class:`TraceOp` per operation so the stream can be replayed for other
    devices.  ``receive_segment`` needs no override: the base implementation
    delegates to :meth:`receive_segment_packets`.
    """

    def __init__(
        self,
        cycle: BroadcastCycle,
        start_position: int,
        loss_model: Optional[PacketLossModel] = None,
    ) -> None:
        super().__init__(cycle, start_position, loss_model)
        self._ops: List[TraceOp] = []

    def receive_one_packet(self) -> Segment:
        segment = super().receive_one_packet()
        self._ops.append(
            TraceOp(OpKind.ONE_PACKET, anchor=(self.position - 1) % self.cycle.total_packets)
        )
        return segment

    def receive_segment_packets(self, name: str, packet_offsets: Sequence[int]):
        reception = super().receive_segment_packets(name, packet_offsets)
        anchor = (reception.start_position + reception.requested_offsets[0]) % (
            self.cycle.total_packets
        )
        self._ops.append(
            TraceOp(
                OpKind.SEGMENT,
                name=name,
                packet_count=len(reception.requested_offsets),
                last_offset=reception.requested_offsets[-1],
                anchor=anchor,
            )
        )
        return reception

    def trace(self) -> SessionTrace:
        """The materialized packet stream recorded so far."""
        return SessionTrace(
            ops=tuple(self._ops),
            cycle_packets=self.cycle.total_packets,
            loss_rate=self.loss_model.loss_rate,
        )
