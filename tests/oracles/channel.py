"""Per-packet reference for :class:`~repro.broadcast.channel.ClientSession`.

The production session charges a reception per call, arithmetically.  These
functions walk the same reception one packet at a time -- sleep to the
packet, charge it, advance past it, draw its loss -- and mutate a plain
``ClientSession`` exactly as the per-call methods must.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.broadcast.channel import ClientSession, PacketLossModel, SegmentReception


def is_lost(model: PacketLossModel) -> bool:
    """Whether the next received packet is lost (one draw unless lossless)."""
    if model.loss_rate == 0.0:
        return False
    return model._rng.random() < model.loss_rate


def receive_segment(session: ClientSession, name: str) -> SegmentReception:
    segment = session.cycle.segment(name)
    return receive_segment_packets(session, name, range(segment.num_packets))


def receive_segment_packets(
    session: ClientSession, name: str, packet_offsets: Sequence[int]
) -> SegmentReception:
    segment = session.cycle.segment(name)
    offsets = sorted(set(int(o) for o in packet_offsets))
    if not offsets:
        raise ValueError("packet_offsets must be non-empty")
    if offsets[0] < 0 or offsets[-1] >= segment.num_packets:
        raise ValueError(
            f"packet offsets {offsets} outside segment of {segment.num_packets} packets"
        )
    segment_start = session.cycle.next_segment_named(name, session.position)
    session.sleep_until(segment_start + offsets[0])
    lost: List[int] = []
    for offset in offsets:
        session.sleep_until(segment_start + offset)
        session.tuning_packets += 1
        session.position = segment_start + offset + 1
        if is_lost(session.loss_model):
            lost.append(offset)
            session.lost_packets += 1
    return SegmentReception(
        segment=segment,
        start_position=segment_start,
        requested_offsets=offsets,
        lost_offsets=lost,
    )

