"""Broadcast channel simulator and client tuning sessions.

A :class:`ClientSession` models one client processing one query:

* the client *tunes in* at an arbitrary packet position,
* it may *receive* packets (each received packet counts toward tuning time
  and may be lost, per the channel's :class:`PacketLossModel`),
* it may *sleep* until a later packet position (no tuning cost),
* it may *recover* packets lost on the air by re-receiving them at later
  broadcasts of their segments (:meth:`ClientSession.recover`), and
* at the end, its tuning time is the number of packets received and its
  access latency the number of packets elapsed since tune-in (paper
  Section 3.1).

Positions are *global*: they increase monotonically across cycle repetitions
(the server transmits identical cycles back to back), while
``position % cycle.total_packets`` gives the offset within the cycle.

A reception is charged per call, not per packet: its tuning time, final
position and lost packets follow arithmetically from the requested offsets
and one loss draw per packet (:meth:`PacketLossModel.lost`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.packet import Segment

__all__ = ["PacketLossModel", "SegmentReception", "ClientSession", "BroadcastChannel"]

#: Passes :meth:`ClientSession.recover` makes over still-missing packets.
RECOVERY_PASSES = 50


class PacketLossModel:
    """Independent (Bernoulli) per-packet loss with a fixed rate."""

    def __init__(self, loss_rate: float = 0.0, seed: int = 0) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1), got {loss_rate}")
        self.loss_rate = loss_rate
        self._rng = random.Random(seed)

    def lost(self, packets: Iterable[int]) -> List[int]:
        """The subset of ``packets``, received in order, lost on the air.

        Draws the generator exactly once per packet, in order; a lossless
        channel draws nothing.
        """
        if self.loss_rate == 0.0:
            return []
        rate = self.loss_rate
        draw = self._rng.random
        return [packet for packet in packets if draw() < rate]


#: The loss model of every lossless session: it never draws, so one
#: instance serves them all.
_LOSSLESS = PacketLossModel(0.0)


@dataclass
class SegmentReception:
    """Outcome of receiving (part of) a segment."""

    segment: Segment
    #: Global packet position where the receive started.
    start_position: int
    #: Packet offsets *within the segment* that were requested, ascending
    #: and unique (a ``range`` when the whole segment was received).
    requested_offsets: Sequence[int] = field(default_factory=list)
    #: Subset of requested offsets that were lost on the air.
    lost_offsets: List[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """``True`` when no requested packet was lost."""
        return not self.lost_offsets


class ClientSession:
    """One client's interaction with the broadcast channel for one query."""

    def __init__(
        self,
        cycle: BroadcastCycle,
        start_position: int,
        loss_model: Optional[PacketLossModel] = None,
    ) -> None:
        self.cycle = cycle
        self.start_position = start_position
        self.position = start_position
        self.loss_model = loss_model or _LOSSLESS
        self.tuning_packets = 0
        self.lost_packets = 0

    # ------------------------------------------------------------------
    # Elementary operations
    # ------------------------------------------------------------------
    def sleep_until(self, global_position: int) -> None:
        """Doze (radio off) until ``global_position``; no tuning cost."""
        if global_position < self.position:
            raise ValueError(
                f"cannot sleep backwards: at {self.position}, asked for {global_position}"
            )
        self.position = global_position

    def receive_one_packet(self) -> Segment:
        """Receive the packet currently on the air and advance one position.

        Used by clients right after tuning in, to read the pointer to the
        next index copy that every packet carries.
        """
        segment = self.cycle.segment_at(self.position)
        self.tuning_packets += 1
        self.position += 1
        return segment

    def receive_segment(self, name: str) -> SegmentReception:
        """Sleep until the named segment is next on the air and receive all of it."""
        segment = self.cycle.segment(name)
        return self.receive_segment_packets(name, range(segment.num_packets))

    def receive_segment_packets(
        self, name: str, packet_offsets: Sequence[int]
    ) -> SegmentReception:
        """Receive only the given packet offsets of the named segment.

        The client sleeps until the segment's next broadcast, listens only
        during the requested offsets (sleeping through the others), and ends
        positioned right after the last requested packet.  Duplicate offsets
        are received once.
        """
        segment = self.cycle.segment(name)
        if type(packet_offsets) is range and packet_offsets.step == 1:
            offsets = packet_offsets
        else:
            offsets = sorted(set(int(o) for o in packet_offsets))
        if not offsets:
            raise ValueError("packet_offsets must be non-empty")
        if offsets[0] < 0 or offsets[-1] >= segment.num_packets:
            raise ValueError(
                f"packet offsets {offsets} outside segment of {segment.num_packets} packets"
            )
        segment_start = self.cycle.next_segment_named(name, self.position)
        self.tuning_packets += len(offsets)
        self.position = segment_start + offsets[-1] + 1
        lost = self.loss_model.lost(offsets)
        self.lost_packets += len(lost)
        return SegmentReception(
            segment=segment,
            start_position=segment_start,
            requested_offsets=offsets,
            lost_offsets=lost,
        )

    def recover(self, pending: Iterable[Tuple[str, Sequence[int]]]) -> None:
        """Re-receive lost packets until none is missing (Section 6.2).

        ``pending`` lists ``(segment name, lost packet offsets)`` pairs;
        entries with no offsets are skipped.  Each pass receives every
        still-missing entry once, in list order, at the segment's next
        broadcast, and keeps what was lost again for the next pass; at most
        :data:`RECOVERY_PASSES` passes run.  A single entry is the immediate
        "receive until complete" loop; a list gathered over a whole query
        defers recovery so that a loss never stalls the protocol for a cycle.
        """
        pending = [(name, offsets) for name, offsets in pending if offsets]
        for _ in range(RECOVERY_PASSES):
            if not pending:
                return
            still_pending = []
            for name, offsets in pending:
                lost = self.receive_segment_packets(name, offsets).lost_offsets
                if lost:
                    still_pending.append((name, lost))
            pending = still_pending

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def elapsed_packets(self) -> int:
        """Access latency so far: packets elapsed since tune-in."""
        return self.position - self.start_position

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ClientSession(start={self.start_position}, position={self.position}, "
            f"tuned={self.tuning_packets})"
        )


class BroadcastChannel:
    """A broadcast cycle transmitted repeatedly, with optional packet loss."""

    def __init__(
        self,
        cycle: BroadcastCycle,
        loss_rate: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.cycle = cycle
        self.loss_rate = loss_rate
        self._seed = seed
        self._session_count = 0

    def session(self, tune_in_offset: Optional[int] = None) -> ClientSession:
        """Open a client session.

        ``tune_in_offset`` fixes the cycle offset at which the client tunes
        in; when omitted, a deterministic pseudo-random offset is drawn (so
        repeated experiment runs are reproducible but different queries see
        different phases of the cycle, as in the paper's evaluation).

        Session ``k`` draws from a generator seeded by the channel seed and
        ``k``: the offset first (when not given), then a lossy session's
        loss seed.  A session that needs neither draw -- lossless, at a
        given offset -- builds no generator, but still counts.
        """
        self._session_count += 1
        if tune_in_offset is not None and self.loss_rate == 0.0:
            return ClientSession(self.cycle, tune_in_offset)
        rng = random.Random(self._seed * 1_000_003 + self._session_count)
        if tune_in_offset is None:
            tune_in_offset = rng.randrange(self.cycle.total_packets)
        if self.loss_rate == 0.0:
            return ClientSession(self.cycle, tune_in_offset)
        loss = PacketLossModel(self.loss_rate, seed=rng.randrange(2**31))
        return ClientSession(self.cycle, tune_in_offset, loss)
