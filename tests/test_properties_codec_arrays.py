"""The border-path labels persist as raw bytes; the codec takes no arrays.

NR and EB keep only the distance labels of their border-path block in an
artifact, as little-endian float64 bytes.  The predecessors are derived
from ``dist`` on the first block use, over the weights the labels were
computed on, and every other block column is derived again by ``_fold``:

* hypothesis properties round-trip label bytes through the codec over
  int64 extremes, signed zeros, infinities and arbitrary NaN bit patterns,
  and check that the codec refuses ``array.array`` values of any typecode;
* the NR and EB block's derived columns equal the record-at-a-time oracle's
  (``tests/oracles/border_paths.py``) after a build, after each refresh
  batch and after restore-then-refresh, and the restored block equals the
  built one in all eight columns;
* a restore whose network took a weight batch before its first block use
  (the engine's order: ``apply_updates``, then ``shadow_rebuild``) derives
  its predecessors over the pre-batch weights and refreshes into a scratch
  build's block and state, also when the batch moves two parallel edges of
  one pair;
* artifacts written by the record-at-a-time writer, under an older
  ``FORMAT_VERSION``, are refused as stale, and a store holding one
  rebuilds instead.
"""

from __future__ import annotations

import io
import random
import struct
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import air
from repro.air.base import AirIndexScheme
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.serialize import FORMAT_VERSION, ArtifactVersionError, BuildArtifact
from repro.serialize.codec import CodecError, decode_value, encode_value
from repro.store import ArtifactStore

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


def _through_codec(raw: bytes) -> bytes:
    """``raw`` as a state entry after an encode/decode round."""
    decoded = decode_value(encode_value({"labels": {"dist": raw}}))
    return decoded["labels"]["dist"]


@given(st.lists(int64s, max_size=40))
@settings(max_examples=200, deadline=None)
def test_int64_label_bytes_round_trip(values):
    raw = np.asarray(values, dtype="<i8").tobytes()
    assert _through_codec(raw) == raw
    assert np.frombuffer(_through_codec(raw), dtype="<i8").tolist() == values


@given(st.lists(doubles, max_size=40))
@settings(max_examples=200, deadline=None)
def test_float64_label_bytes_round_trip(values):
    raw = np.asarray(values, dtype="<f8").tobytes()
    assert _through_codec(raw) == raw
    assert _bits(np.frombuffer(_through_codec(raw), dtype="<f8").tolist()) == _bits(values)


@given(st.lists(int64s, max_size=8), st.lists(doubles, max_size=8))
@settings(max_examples=50, deadline=None)
def test_typed_arrays_are_refused(ints, floats):
    for value in (array("q", ints), array("d", floats), {"d": [array("d", floats)]}):
        with pytest.raises(CodecError, match="array"):
            encode_value(value)


@pytest.mark.parametrize("typecode", ["b", "B", "h", "H", "i", "I", "l", "L", "Q", "f"])
@pytest.mark.parametrize("values", [[], [1, 2, 3]])
def test_other_typecodes_are_refused(typecode, values):
    with pytest.raises(CodecError, match="array"):
        encode_value(array(typecode, values))


# ----------------------------------------------------------------------
# Border-path blocks vs the record oracle
# ----------------------------------------------------------------------
BLOCK_COLUMNS = (
    "dist", "pred", "cross", "finite_pairs", "min_to", "max_to", "reach", "traversed"
)


def _network(seed: int):
    network = generate_road_network(
        GeneratorConfig(num_nodes=110, num_edges=260, seed=seed),
        name=f"typed-columns-{seed}",
    )
    network.clear_delta()
    return network


def _labels(scheme) -> dict:
    return scheme.precomputation.state()["labels"]


def _assert_block_matches_oracle(scheme) -> None:
    precomputation = scheme.precomputation
    assert oracle.block_records(precomputation) == oracle.records(precomputation)


def _assert_same_block(got, want) -> None:
    for column in BLOCK_COLUMNS:
        assert np.array_equal(
            getattr(got.precomputation.block, column),
            getattr(want.precomputation.block, column),
        ), column


def _updates(network, rng: random.Random, count: int = 5):
    """A random batch of ``count`` edge-weight updates."""
    edges = [(e.source, e.target) for e in network.edges()]
    return [
        (s, t, round(rng.uniform(0.5, 3.0) * network.edge_weight(s, t), 6))
        for s, t in rng.sample(edges, count)
    ]


def _refresh(scheme, network, rng: random.Random):
    """Apply a random batch; returns ``scheme``'s refreshed replacement."""
    network.apply_updates(_updates(network, rng))
    replacement = scheme.shadow_rebuild(network, network.pending_delta())
    assert replacement is not None
    network.clear_delta()
    return replacement


@pytest.mark.parametrize("seed", [97, 12])
@pytest.mark.parametrize("name", ["NR", "EB"])
def test_sources_blob_matches_the_list_oracle(name, seed):
    build_network = _network(seed)
    serving_network = build_network.copy()
    assert serving_network.fingerprint() == build_network.fingerprint()
    assert serving_network.node_ids() == build_network.node_ids()
    scheme = air.create(name, build_network, num_regions=8)

    block = scheme.precomputation.block
    built = _labels(scheme)
    # A positive-weight snapshot stores ``dist`` alone; ``pred`` follows.
    assert built == {"dist": block.dist.astype("<f8").tobytes()}
    _assert_block_matches_oracle(scheme)

    artifact = BuildArtifact.from_bytes(scheme.artifact().to_bytes())
    restored = AirIndexScheme.from_artifact(serving_network, artifact)
    # Restored and never refreshed: the labels are re-published as they
    # came, byte for byte.
    assert _labels(restored) == built
    assert encode_value(restored.precomputation.state()) == encode_value(
        scheme.precomputation.state()
    )
    _assert_same_block(restored, scheme)

    for step in range(3):
        scheme = _refresh(scheme, build_network, random.Random(seed * 10 + step))
        restored = _refresh(restored, serving_network, random.Random(seed * 10 + step))
        _assert_block_matches_oracle(scheme)
        _assert_block_matches_oracle(restored)
        _assert_same_block(restored, scheme)
        assert _labels(restored) == _labels(scheme)


#: NR/EB artifacts (48-node generated network, 4 regions) encoded by the
#: record-at-a-time border-path writer, under format version 2.
RECORD_WRITER_ARTIFACTS = Path(__file__).parent / "fixtures" / "record_writer_artifacts"


@pytest.mark.parametrize("name", ["NR", "EB"])
def test_record_writer_artifacts_restore_and_refresh(name, tmp_path):
    """An old-format artifact is refused as stale; a store holding one
    discards it and misses, and what the rebuild stores restores and
    refreshes like a scratch build."""
    network = generate_road_network(
        GeneratorConfig(num_nodes=48, num_edges=110, seed=21), name="record-writer"
    )
    network.clear_delta()
    data = (RECORD_WRITER_ARTIFACTS / f"{name.lower()}.artifact").read_bytes()
    for read in (BuildArtifact.from_bytes, lambda raw: BuildArtifact.read_from(io.BytesIO(raw))):
        with pytest.raises(ArtifactVersionError) as caught:
            read(data)
        assert (caught.value.found, caught.value.expected) == (2, FORMAT_VERSION)

    scratch = air.create(name, network, num_regions=4)
    params = scratch.artifact().params
    store = ArtifactStore(tmp_path)
    path = store.object_path(name, params, network.fingerprint())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    assert store.get(name, params, network.fingerprint()) is None
    assert store.stale_versions == 1 and not path.exists()

    store.put(scratch.artifact())
    restored = AirIndexScheme.from_artifact(
        network, store.get(name, params, network.fingerprint())
    )
    for step in range(3):
        restored = _refresh(restored, network, random.Random(step))
        scratch = air.create(name, network, num_regions=4)
        _assert_same_block(restored, scratch)
        assert _labels(restored) == _labels(scratch)
        assert restored.cycle.signature() == scratch.cycle.signature()
        assert restored.precomputation.traversed_regions == (
            scratch.precomputation.traversed_regions
        )


def _comparable_state(scheme) -> dict:
    """The border-path state with its build time left out."""
    return {**scheme.precomputation.state(), "seconds": None}


@pytest.mark.parametrize("seed", [97, 12])
@pytest.mark.parametrize("name", ["NR", "EB"])
def test_restore_then_update_refreshes_like_scratch(name, seed):
    """The engine's order: restore, ``apply_updates`` (the CSR weights are
    patched in place), and only then the first block use, through
    ``shadow_rebuild``.  The predecessors must be derived over the weights
    the labels were computed on, not the patched ones; a derivation over
    the current weights leaves a different tree behind."""
    network = _network(seed)
    scheme = air.create(name, network, num_regions=8)
    assert set(_labels(scheme)) == {"dist"}
    data = scheme.artifact().to_bytes()
    rng = random.Random(seed)
    for batches in (1, 2, 1):
        restored = AirIndexScheme.from_artifact(network, BuildArtifact.from_bytes(data))
        for _ in range(batches):
            network.apply_updates(_updates(network, rng, count=6))
        refreshed = restored.shadow_rebuild(network, network.pending_delta())
        network.clear_delta()
        scratch = air.create(name, network, num_regions=8)
        _assert_same_block(refreshed, scratch)
        assert _comparable_state(refreshed) == _comparable_state(scratch)
        assert refreshed.cycle.signature() == scratch.cycle.signature()
        # The next round restores what this refresh would publish.
        data = refreshed.artifact().to_bytes()


@pytest.mark.parametrize("name", ["NR", "EB"])
def test_parallel_edge_batch_refreshes_a_restore_like_scratch(name):
    """Two updates of one ``(source, target)`` pair in one batch may patch
    two parallel edges: with edges at ``w`` and ``w + 2``, setting ``w + 3``
    moves the first and then setting ``w / 2`` moves the second.  The
    delta records each edge's own change, so the batch undoes to the
    pre-batch fingerprint, and a restore refreshes incrementally (no
    ``StaleLabelsError``) into a scratch build."""
    network = _network(5)
    source, target, weight = next(network.edge_tuples())
    network.add_edge(source, target, weight + 2.0)
    network.clear_delta()
    before = network.fingerprint()
    scheme = air.create(name, network, num_regions=8)
    restored = AirIndexScheme.from_artifact(
        network, BuildArtifact.from_bytes(scheme.artifact().to_bytes())
    )
    network.apply_updates([(source, target, weight + 3.0), (source, target, weight / 2)])
    delta = network.pending_delta()
    assert sorted((c.old_weight, c.new_weight) for c in delta.changes) == [
        (weight, weight + 3.0),
        (weight + 2.0, weight / 2),
    ]
    assert network.fingerprint_before(delta.changes) == before
    refreshed = restored.shadow_rebuild(network, delta)
    network.clear_delta()
    scratch = air.create(name, network, num_regions=8)
    _assert_same_block(refreshed, scratch)
    assert _comparable_state(refreshed) == _comparable_state(scratch)
    assert refreshed.cycle.signature() == scratch.cycle.signature()
