"""Unit tests for the broadcast channel simulator and client sessions."""

import pytest

from repro.broadcast.channel import BroadcastChannel, ClientSession, PacketLossModel
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.packet import PACKET_PAYLOAD_BYTES, Segment, SegmentKind


def make_cycle():
    return BroadcastCycle(
        [
            Segment("index", SegmentKind.INDEX, 2 * PACKET_PAYLOAD_BYTES),
            Segment("data-0", SegmentKind.NETWORK_DATA, 4 * PACKET_PAYLOAD_BYTES),
            Segment("data-1", SegmentKind.NETWORK_DATA, 3 * PACKET_PAYLOAD_BYTES),
        ]
    )


class TestPacketLossModel:
    def test_zero_rate_never_loses(self):
        model = PacketLossModel(0.0)
        assert model.lost(range(1000)) == []

    def test_rate_roughly_respected(self):
        model = PacketLossModel(0.3, seed=1)
        losses = len(model.lost(range(5000)))
        assert 0.25 * 5000 < losses < 0.35 * 5000

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            PacketLossModel(1.0)
        with pytest.raises(ValueError):
            PacketLossModel(-0.1)


class TestClientSession:
    def test_receive_one_packet_counts_tuning_and_advances(self):
        session = ClientSession(make_cycle(), start_position=3)
        segment = session.receive_one_packet()
        assert segment.name == "data-0"
        assert session.tuning_packets == 1
        assert session.position == 4
        assert session.elapsed_packets == 1

    def test_sleep_until_charges_no_tuning(self):
        session = ClientSession(make_cycle(), start_position=0)
        session.sleep_until(7)
        assert session.tuning_packets == 0
        assert session.elapsed_packets == 7

    def test_sleep_backwards_rejected(self):
        session = ClientSession(make_cycle(), start_position=5)
        with pytest.raises(ValueError):
            session.sleep_until(2)

    def test_receive_segment_waits_for_next_occurrence(self):
        session = ClientSession(make_cycle(), start_position=0)
        reception = session.receive_segment("data-1")
        assert reception.start_position == 6
        assert session.tuning_packets == 3
        assert session.position == 9

    def test_receive_segment_wraps_to_next_cycle(self):
        # Tune in after data-0 has started: its next full broadcast is in the
        # following cycle repetition.
        session = ClientSession(make_cycle(), start_position=3)
        reception = session.receive_segment("data-0")
        assert reception.start_position == 9 + 2
        assert session.position == 9 + 2 + 4

    def test_receive_specific_packets_only(self):
        session = ClientSession(make_cycle(), start_position=0)
        reception = session.receive_segment_packets("data-0", [1, 3])
        assert session.tuning_packets == 2
        assert reception.requested_offsets == [1, 3]
        # Position ends right after the last requested packet (offset 3 of a
        # segment starting at 2).
        assert session.position == 2 + 3 + 1

    def test_receive_packets_validates_offsets(self):
        session = ClientSession(make_cycle(), start_position=0)
        with pytest.raises(ValueError):
            session.receive_segment_packets("data-0", [99])
        with pytest.raises(ValueError):
            session.receive_segment_packets("data-0", [])

    def test_loss_recorded_per_packet(self):
        session = ClientSession(
            make_cycle(), start_position=0, loss_model=PacketLossModel(0.999999, seed=3)
        )
        reception = session.receive_segment("index")
        assert reception.lost_offsets == [0, 1]
        assert session.lost_packets == 2
        assert not reception.complete

    def test_receive_full_cycle_without_loss(self):
        session = ClientSession(make_cycle(), start_position=4)
        received = session.receive_full_cycle()
        assert received == 9
        assert session.tuning_packets == 9
        assert session.elapsed_packets == 9

    def test_receive_full_cycle_retries_lost_packets(self):
        session = ClientSession(
            make_cycle(), start_position=0, loss_model=PacketLossModel(0.4, seed=5)
        )
        received = session.receive_full_cycle()
        assert received > 9  # retries happened
        assert session.tuning_packets == received


class TestBroadcastChannel:
    def test_sessions_are_deterministic_per_channel_seed(self):
        cycle = make_cycle()
        offsets_a = [BroadcastChannel(cycle, seed=2).session().start_position for _ in range(3)]
        offsets_b = [BroadcastChannel(cycle, seed=2).session().start_position for _ in range(3)]
        assert offsets_a == offsets_b

    def test_successive_sessions_tune_in_at_different_offsets(self):
        channel = BroadcastChannel(make_cycle(), seed=3)
        offsets = {channel.session().start_position for _ in range(10)}
        assert len(offsets) > 1

    def test_explicit_tune_in_offset(self):
        channel = BroadcastChannel(make_cycle(), seed=0)
        assert channel.session(tune_in_offset=5).start_position == 5
