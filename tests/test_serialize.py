"""Tests for the binary serialization layer (codec, artifacts, substrate states)."""

from __future__ import annotations

import math
import struct

import pytest

from repro.network.generators import GeneratorConfig, generate_road_network
from repro.partitioning.grid import build_grid_partitioning
from repro.partitioning.kdtree import build_kdtree_partitioning
from repro.serialize import (
    ArtifactChecksumError,
    ArtifactVersionError,
    BuildArtifact,
    FORMAT_VERSION,
    decode_value,
    encode_value,
    params_fingerprint,
)
from repro.serialize.codec import CodecError
from repro.serialize.graphs import cycle_layout, partitioning_state, restore_partitioning


@pytest.fixture(scope="module")
def network():
    net = generate_road_network(
        GeneratorConfig(num_nodes=90, num_edges=210, seed=5), name="serialize-net"
    )
    net.clear_delta()
    return net


class TestCodecRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**63 - 1,
            -(2**63),
            2**100,
            -(2**100),
            0.0,
            3.141592653589793,
            float("inf"),
            -float("inf"),
            "",
            "héllo wörld",
            b"",
            b"\x00\xff\x7f",
            [],
            (),
            {},
            set(),
            frozenset(),
            [1, 2, 3],
            (1, 2, 3),
            [1.5, 2.5],
            (0.5, -0.5),
            ["mixed", 1, 2.0, None],
            {"a": 1, "b": [2, 3], "c": {"nested": (4, 5)}},
            {(1, 2): 0.5, (3, 4): 1.5},
            {1: 0.5, 2: 1.5},
            {3, 1, 2},
            frozenset([(1, 2), (0, 5)]),
            [[1], [2.0], ["x"]],
        ],
    )
    def test_round_trip_preserves_value_and_type(self, value):
        result = decode_value(encode_value(value))
        assert result == value
        assert type(result) is type(value)

    def test_bool_is_not_flattened_to_int(self):
        result = decode_value(encode_value([True, 1, False, 0]))
        assert [type(item) for item in result] == [bool, int, bool, int]

    def test_large_homogeneous_containers_round_trip(self):
        ints = list(range(-50_000, 50_000, 7))
        floats = [i / 3.0 for i in range(10_000)]
        table = dict(zip(ints, (float(i) for i in ints)))
        for value in (ints, tuple(ints), floats, tuple(floats), table):
            assert decode_value(encode_value(value)) == value

    def test_int64_overflow_falls_back_to_generic_encoding(self):
        values = [1, 2, 2**80]
        assert decode_value(encode_value(values)) == values

    def test_dict_insertion_order_is_preserved(self):
        original = {key: key * 2 for key in (5, 1, 9, 3, 7)}
        restored = decode_value(encode_value(original))
        assert list(restored) == [5, 1, 9, 3, 7]

    def test_negative_zero_sign_survives(self):
        assert math.copysign(1.0, decode_value(encode_value(-0.0))) == -1.0

    def test_set_encoding_is_canonical(self):
        left, right = {3, 1, 2}, set()
        right.update((2, 3))
        right.add(1)
        assert encode_value(left) == encode_value(right)

    def test_unsupported_type_raises(self):
        with pytest.raises(CodecError):
            encode_value(object())

    def test_unsortable_set_raises(self):
        with pytest.raises(CodecError):
            encode_value({1, "a"})

    def test_trailing_bytes_raise(self):
        with pytest.raises(CodecError):
            decode_value(encode_value(1) + b"\x00")

    def test_truncated_bytes_raise(self):
        data = encode_value([1.0, 2.0, 3.0])
        with pytest.raises(CodecError):
            decode_value(data[:-4])

    def test_unknown_tag_raises(self):
        with pytest.raises(CodecError):
            decode_value(b"\xf0")


class TestBuildArtifactFraming:
    def _artifact(self) -> BuildArtifact:
        return BuildArtifact(
            scheme="NR",
            params={"num_regions": 8},
            network_fingerprint="ab" * 16,
            payload=encode_value({"state": [1, 2, 3]}),
        )

    def test_round_trip(self):
        artifact = self._artifact()
        assert BuildArtifact.from_bytes(artifact.to_bytes()) == artifact

    def test_encoding_is_deterministic(self):
        assert self._artifact().to_bytes() == self._artifact().to_bytes()

    def test_read_header_without_payload_decode(self):
        header = BuildArtifact.read_header(self._artifact().to_bytes())
        assert header["scheme"] == "NR"
        assert header["params"] == {"num_regions": 8}
        assert header["format_version"] == FORMAT_VERSION

    def test_bit_flip_raises_checksum_error(self):
        data = bytearray(self._artifact().to_bytes())
        data[len(data) // 2] ^= 0x40
        with pytest.raises(ArtifactChecksumError):
            BuildArtifact.from_bytes(bytes(data))

    def test_truncation_raises_checksum_error(self):
        data = self._artifact().to_bytes()
        for cut in (0, 3, 10, len(data) - 5):
            with pytest.raises(ArtifactChecksumError):
                BuildArtifact.from_bytes(data[:cut])

    def test_bad_magic_raises_checksum_error(self):
        data = bytearray(self._artifact().to_bytes())
        data[:4] = b"NOPE"
        with pytest.raises(ArtifactChecksumError):
            BuildArtifact.from_bytes(bytes(data))

    def test_foreign_version_raises_version_error(self):
        data = bytearray(self._artifact().to_bytes())
        struct.pack_into("<H", data, 4, FORMAT_VERSION + 1)
        with pytest.raises(ArtifactVersionError) as excinfo:
            BuildArtifact.from_bytes(bytes(data))
        assert excinfo.value.found == FORMAT_VERSION + 1
        assert excinfo.value.expected == FORMAT_VERSION

    def test_stream_write_is_byte_identical_to_to_bytes(self, tmp_path):
        import io as _io

        artifact = self._artifact()
        for chunk_bytes in (1, 7, 777, 1 << 20):
            buffer = _io.BytesIO()
            written = artifact.write_to(buffer, chunk_bytes=chunk_bytes)
            assert buffer.getvalue() == artifact.to_bytes()
            assert written == len(artifact.to_bytes())

    def test_stream_round_trip(self, tmp_path):
        artifact = self._artifact()
        path = tmp_path / "artifact.bin"
        with path.open("wb") as handle:
            artifact.write_to(handle, chunk_bytes=11)
        with path.open("rb") as handle:
            assert BuildArtifact.read_from(handle, chunk_bytes=13) == artifact

    def test_stream_round_trip_empty_payload(self, tmp_path):
        import io as _io

        artifact = BuildArtifact(
            scheme="DJ", params={}, network_fingerprint="00" * 16, payload=b""
        )
        buffer = _io.BytesIO()
        artifact.write_to(buffer)
        buffer.seek(0)
        assert BuildArtifact.read_from(buffer) == artifact

    def test_stream_read_failure_modes(self, tmp_path):
        import io as _io

        data = self._artifact().to_bytes()
        # Truncation at every framing boundary.
        for cut in (0, 3, 8, len(data) - 40, len(data) - 5):
            with pytest.raises(ArtifactChecksumError):
                BuildArtifact.read_from(_io.BytesIO(data[:cut]))
        # Corruption, trailing bytes, bad magic.
        flipped = bytearray(data)
        flipped[len(flipped) // 2] ^= 0x20
        with pytest.raises(ArtifactChecksumError, match="checksum"):
            BuildArtifact.read_from(_io.BytesIO(bytes(flipped)))
        with pytest.raises(ArtifactChecksumError, match="trailing"):
            BuildArtifact.read_from(_io.BytesIO(data + b"x"))
        with pytest.raises(ArtifactChecksumError, match="magic"):
            BuildArtifact.read_from(_io.BytesIO(b"NOPE" + data[4:]))
        # A foreign version is staleness, not corruption, and is detected
        # before the header bytes are interpreted.
        foreign = bytearray(data)
        struct.pack_into("<H", foreign, 4, FORMAT_VERSION + 1)
        with pytest.raises(ArtifactVersionError):
            BuildArtifact.read_from(_io.BytesIO(bytes(foreign)))

    def test_params_fingerprint_is_order_independent_and_value_exact(self):
        assert params_fingerprint({"a": 1, "b": 2}) == params_fingerprint(
            {"b": 2, "a": 1}
        )
        assert params_fingerprint({"a": 1}) != params_fingerprint({"a": True})
        assert params_fingerprint({"a": 1}) != params_fingerprint({"a": 1.0})


class TestPartitioningCodec:
    def test_kdtree_round_trip_matches_membership(self, network):
        partitioning = build_kdtree_partitioning(network, 8)
        state = decode_value(encode_value(partitioning_state(partitioning)))
        restored = restore_partitioning(network, state)
        for node_id in network.node_ids():
            assert restored.region_of(node_id) == partitioning.region_of(node_id)
        for region in range(8):
            assert restored.border_nodes(region) == partitioning.border_nodes(region)
            assert restored.nodes_in_region(region) == partitioning.nodes_in_region(
                region
            )

    def test_grid_round_trip_matches_membership(self, network):
        partitioning = build_grid_partitioning(network, rows=3, cols=4)
        state = decode_value(encode_value(partitioning_state(partitioning)))
        restored = restore_partitioning(network, state)
        for node_id in network.node_ids():
            assert restored.region_of(node_id) == partitioning.region_of(node_id)

    def test_unknown_kind_raises(self, network):
        with pytest.raises(CodecError):
            restore_partitioning(network, {"kind": "voronoi"})


class TestCycleLayout:
    def test_layout_pins_down_every_packet_position(self, network):
        from repro import air

        scheme = air.create("NR", network, num_regions=8)
        layout = cycle_layout(scheme.cycle)
        assert layout["total_packets"] == scheme.cycle.total_packets
        assert len(layout["segments"]) == len(scheme.cycle.segments)
        for record, segment in zip(layout["segments"], scheme.cycle.segments):
            assert record == [
                segment.name,
                segment.kind.value,
                segment.size_bytes,
                segment.num_packets,
                segment.region,
            ]
        # Plain values end to end: the layout must survive the codec.
        assert decode_value(encode_value(layout)) == layout


class TestCorruptTagContainment:
    def test_unhashable_dict_key_from_corrupt_bytes_raises_codec_error(self):
        # Encode {key: value} with a str key, then flip the key's tag from
        # STR (0x05) to LIST (0x07): decoding now builds a dict with a list
        # key, which must surface as CodecError, not TypeError.
        data = bytearray(encode_value({"k": 1}))
        position = data.index(0x05)
        data[position] = 0x07
        with pytest.raises(CodecError):
            decode_value(bytes(data))

    def test_unhashable_set_item_from_corrupt_bytes_raises_codec_error(self):
        data = bytearray(encode_value({("a",)}))
        # Flip the inner tuple's tag (TUPLE 0x08) to LIST (0x07).
        position = data.index(0x08)
        data[position] = 0x07
        with pytest.raises(CodecError):
            decode_value(bytes(data))

    def test_corrupt_header_with_unhashable_key_is_quarantined_not_crash(
        self, tmp_path
    ):
        from repro.store import ArtifactStore

        artifact = BuildArtifact(
            scheme="DJ",
            params={"x": 1},
            network_fingerprint="0" * 32,
            payload=encode_value({}),
        )
        store = ArtifactStore(tmp_path)
        path = store.put(artifact)
        data = bytearray(path.read_bytes())
        # Corrupt the first STR tag inside the header region.
        position = data.index(0x05, 10)
        data[position] = 0x07
        path.write_bytes(bytes(data))
        assert store.get("DJ", {"x": 1}, "0" * 32) is None
        assert store.entries() == []
        assert store.stats()["quarantined"] >= 1
