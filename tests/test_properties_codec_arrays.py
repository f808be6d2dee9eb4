"""Typed-array columns encode byte-identically to the lists they hold.

The codec writes an ``array("q")`` / ``array("d")`` straight from its
buffer, and the NR/EB border-path records build their label columns as
such arrays.  Both must leave the wire bytes exactly as the list path
wrote them, so artifacts stay valid across the change and ``FORMAT_VERSION``
does not move:

* a hypothesis property compares ``encode_value(array(tc, xs))`` with
  ``encode_value(list(xs))`` over empty columns, int64 extremes, signed
  zeros, infinities and arbitrary NaN bit patterns;
* the NR and EB ``sources_blob`` equals the list-column oracle's
  (``tests/oracles/border_paths.py``) after a build, after a refresh batch
  and after restore-then-refresh;
* artifacts written by the record-at-a-time writer that the columnar
  border-path block replaced still restore and refresh bit-identically.
"""

from __future__ import annotations

import random
import struct
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import air
from repro.air.base import AirIndexScheme
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.serialize import BuildArtifact, decode_network, encode_network
from repro.serialize.codec import CodecError, decode_value, encode_value

from oracles import border_paths as oracle

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

int64s = st.one_of(
    st.sampled_from([I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX - 1, I64_MAX]),
    st.integers(min_value=I64_MIN, max_value=I64_MAX),
)


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Any NaN: exponent all ones, a non-zero mantissa (quiet or signalling),
#: either sign.
nan_patterns = st.builds(
    lambda sign, mantissa: _from_bits((sign << 63) | (0x7FF << 52) | mantissa),
    st.integers(0, 1),
    st.integers(1, (1 << 52) - 1),
)

doubles = st.one_of(
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), 5e-324, 1.7976931348623157e308]),
    nan_patterns,
    st.floats(allow_nan=True, allow_infinity=True),
)


def _bits(values) -> list:
    return [struct.pack("<d", value) for value in values]


@given(st.lists(int64s, max_size=40))
@settings(max_examples=200, deadline=None)
def test_int64_array_encodes_as_its_list(values):
    encoded = encode_value(array("q", values))
    assert encoded == encode_value(list(values))
    assert decode_value(encoded) == list(values)


@given(st.lists(doubles, max_size=40))
@settings(max_examples=200, deadline=None)
def test_float64_array_encodes_as_its_list(values):
    encoded = encode_value(array("d", values))
    assert encoded == encode_value(list(values))
    decoded = decode_value(encoded)
    assert type(decoded) is list
    assert _bits(decoded) == _bits(values)


@given(st.lists(int64s, max_size=8), st.lists(doubles, max_size=8))
@settings(max_examples=50, deadline=None)
def test_nested_arrays_encode_as_lists(ints, floats):
    typed = {"q": array("q", ints), "d": [array("d", floats), array("q")]}
    plain = {"q": list(ints), "d": [list(floats), []]}
    assert encode_value(typed) == encode_value(plain)


@pytest.mark.parametrize("typecode", ["b", "B", "h", "H", "i", "I", "l", "L", "Q", "f"])
@pytest.mark.parametrize("values", [[], [1, 2, 3]])
def test_other_typecodes_are_refused(typecode, values):
    with pytest.raises(CodecError, match=repr(typecode)):
        encode_value(array(typecode, values))


# ----------------------------------------------------------------------
# Border-path sources blobs vs the list-column oracle
# ----------------------------------------------------------------------
def _network(seed: int):
    network = generate_road_network(
        GeneratorConfig(num_nodes=110, num_edges=260, seed=seed),
        name=f"typed-columns-{seed}",
    )
    network.clear_delta()
    return network


def _blob(scheme) -> bytes:
    return scheme.precomputation.state()["sources_blob"]


def _refresh(scheme, network, rng: random.Random):
    """Apply a random batch; returns ``scheme``'s refreshed replacement."""
    edges = [(e.source, e.target) for e in network.edges()]
    network.apply_updates(
        (s, t, round(rng.uniform(0.5, 3.0) * network.edge_weight(s, t), 6))
        for s, t in rng.sample(edges, 5)
    )
    replacement = scheme.shadow_rebuild(network, network.pending_delta())
    assert replacement is not None
    network.clear_delta()
    return replacement


@pytest.mark.parametrize("seed", [97, 12])
@pytest.mark.parametrize("name", ["NR", "EB"])
def test_sources_blob_matches_the_list_oracle(name, seed):
    build_network = _network(seed)
    serving_network = decode_network(encode_network(build_network))
    scheme = air.create(name, build_network, num_regions=8)

    columns = scheme.precomputation._sources_columnar()
    assert columns["dist_values"].typecode == "d"
    assert columns["pred_values"].typecode == "q"
    assert columns["cross_items"].typecode == "q"

    built = _blob(scheme)
    assert built == oracle.sources_blob(scheme.precomputation)

    artifact = BuildArtifact.from_bytes(scheme.artifact().to_bytes())
    restored = AirIndexScheme.from_artifact(serving_network, artifact)
    # Restored and never refreshed: the blob is re-published as it came.
    assert bytes(_blob(restored)) == built

    for step in range(3):
        scheme = _refresh(scheme, build_network, random.Random(seed * 10 + step))
        restored = _refresh(restored, serving_network, random.Random(seed * 10 + step))
        refreshed = _blob(scheme)
        assert refreshed == oracle.sources_blob(scheme.precomputation)
        assert _blob(restored) == refreshed
        assert oracle.sources_blob(restored.precomputation) == refreshed


#: NR/EB artifacts (48-node generated network, 4 regions) encoded by the
#: record-at-a-time border-path writer, before the columnar block.
RECORD_WRITER_ARTIFACTS = Path(__file__).parent / "fixtures" / "record_writer_artifacts"


@pytest.mark.parametrize("name", ["NR", "EB"])
def test_record_writer_artifacts_restore_and_refresh(name):
    network = generate_road_network(
        GeneratorConfig(num_nodes=48, num_edges=110, seed=21), name="record-writer"
    )
    network.clear_delta()
    data = (RECORD_WRITER_ARTIFACTS / f"{name.lower()}.artifact").read_bytes()
    restored = AirIndexScheme.from_artifact(network, BuildArtifact.from_bytes(data))
    scratch = air.create(name, network, num_regions=4)
    assert bytes(_blob(restored)) == _blob(scratch)
    for step in range(3):
        restored = _refresh(restored, network, random.Random(step))
        scratch = air.create(name, network, num_regions=4)
        assert _blob(restored) == _blob(scratch)
        assert restored.cycle.signature() == scratch.cycle.signature()
        assert restored.precomputation.traversed_regions == (
            scratch.precomputation.traversed_regions
        )
