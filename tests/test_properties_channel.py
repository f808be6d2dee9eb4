"""Property suite: per-call reception equals the per-packet reference.

:class:`~repro.broadcast.channel.ClientSession` charges ``receive_segment``,
and ``receive_segment_packets`` arithmetically, per call.  The oracle in :mod:`oracles.channel` walks the same receptions one
packet at a time.  Random sequences of receptions on random cycles -- lossless
and lossy channels, unsorted and duplicate offsets, tune-in positions on
both sides of a cycle wrap -- must leave both sessions in the same state
after every call, down to the loss generator's state.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.channel import ClientSession, PacketLossModel
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.packet import PACKET_PAYLOAD_BYTES, Segment, SegmentKind

from oracles import channel as oracle

LOSS_RATES = [0.0, 0.05, 0.3]


def make_cycle(sizes):
    return BroadcastCycle(
        [
            Segment(f"seg-{i}", SegmentKind.NETWORK_DATA, size * PACKET_PAYLOAD_BYTES)
            for i, size in enumerate(sizes)
        ]
    )


def session_pair(cycle, start, loss_rate, seed):
    return tuple(
        ClientSession(cycle, start, PacketLossModel(loss_rate, seed=seed)) for _ in range(2)
    )


def state(session):
    return (
        session.tuning_packets,
        session.lost_packets,
        session.position,
        session.loss_model._rng.getstate(),
    )


def reception_fields(reception):
    return (
        reception.segment.name,
        reception.start_position,
        list(reception.requested_offsets),
        list(reception.lost_offsets),
    )


@st.composite
def scenarios(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    total = sum(sizes)
    # A tune-in position within one cycle of the first wrap, either side.
    start = total + draw(st.integers(-total, total - 1))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["segment", "packets", "range"]))
        index = draw(st.integers(0, len(sizes) - 1))
        size = sizes[index]
        if kind == "packets":
            offsets = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=2 * size))
            ops.append((kind, index, offsets))
        elif kind == "range":
            low = draw(st.integers(0, size - 1))
            high = draw(st.integers(low + 1, size))
            step = draw(st.sampled_from([1, -1]))
            ops.append((kind, index, range(low, high) if step == 1 else range(high - 1, low - 1, -1)))
        else:
            ops.append((kind, index, None))
    return sizes, start, ops


@settings(max_examples=300, deadline=None)
@given(
    scenario=scenarios(),
    loss_rate=st.sampled_from(LOSS_RATES),
    seed=st.integers(0, 2**31 - 1),
)
def test_receptions_match_the_per_packet_oracle(scenario, loss_rate, seed):
    sizes, start, ops = scenario
    cycle = make_cycle(sizes)
    session, reference = session_pair(cycle, start, loss_rate, seed)
    assert state(session) == state(reference)
    for kind, index, argument in ops:
        name = f"seg-{index}"
        if kind == "segment":
            got = reception_fields(session.receive_segment(name))
            want = reception_fields(oracle.receive_segment(reference, name))
        else:
            got = reception_fields(session.receive_segment_packets(name, argument))
            want = reception_fields(oracle.receive_segment_packets(reference, name, argument))
        assert got == want
        assert state(session) == state(reference)


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    loss_rate=st.sampled_from(LOSS_RATES),
    offsets=st.one_of(
        st.just([]),
        st.lists(st.integers(-3, 9), min_size=1, max_size=6).filter(
            lambda values: min(values) < 0 or max(values) > 5
        ),
    ),
)
def test_invalid_offsets_rejected_like_the_oracle(sizes, loss_rate, offsets):
    cycle = make_cycle(sizes)
    session, reference = session_pair(cycle, 1, loss_rate, 7)
    name = f"seg-{len(sizes) - 1}"
    with pytest.raises(ValueError) as got:
        session.receive_segment_packets(name, offsets)
    with pytest.raises(ValueError) as want:
        oracle.receive_segment_packets(reference, name, offsets)
    assert str(got.value) == str(want.value)
    assert state(session) == state(reference)


def test_lossless_reception_draws_nothing():
    cycle = make_cycle([3, 4, 2])
    session = ClientSession(cycle, 5, PacketLossModel(0.0, seed=1))
    before = session.loss_model._rng.getstate()
    session.receive_segment("seg-1")
    session.receive_segment_packets("seg-0", [2, 0, 2])
    assert session.loss_model._rng.getstate() == before
