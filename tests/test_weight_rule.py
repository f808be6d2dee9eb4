"""One weight rule, ``0 < w < inf``, at every way a weight enters.

Each entry point refuses a zero, negative, NaN or infinite weight with its
own typed error -- located where the input has a location -- in a message
of one line.
"""

from __future__ import annotations

import math
from array import array

import pytest

from repro.network.csr import CSRGraph
from repro.network.delta import InvalidUpdateError
from repro.network.graph import RoadNetwork, build_network
from repro.network.ingest import ColumnarWriter, IngestError, import_csv, import_dimacs
from repro.network.io import load_network
from repro.network.weights import first_invalid_weight, is_valid_weight

BAD_WEIGHTS = [0.0, -1.5, math.nan, math.inf, -math.inf]


def _pair() -> RoadNetwork:
    return build_network([(1, 0.0, 0.0), (2, 1.0, 0.0)], [(1, 2, 2.0), (2, 1, 2.0)])


def _add_edge(bad, tmp_path):
    network = _pair()
    with pytest.raises(ValueError) as caught:
        network.add_edge(2, 1, bad)
    assert network.num_edges == 2
    return caught


def _update_edge_weight(bad, tmp_path):
    network = _pair()
    with pytest.raises(ValueError) as caught:
        network.update_edge_weight(1, 2, bad)
    assert network.edge_weight(1, 2) == 2.0
    return caught


def _apply_updates(bad, tmp_path):
    network = _pair()
    with pytest.raises(InvalidUpdateError) as caught:
        network.apply_updates([(2, 1, 3.0), (1, 2, bad)])
    assert caught.value.index == 1
    assert not network.has_pending_delta
    return caught


def _validate(bad, tmp_path):
    """A read-only network over a snapshot whose weight buffer went bad."""
    csr = _pair().ensure_csr()
    network = RoadNetwork.from_arrays(
        csr, array("d", [0.0, 1.0]), array("d", [0.0, 0.0]), name="mapped"
    )
    network.validate()
    csr.fwd_weights[1] = bad
    with pytest.raises(ValueError) as caught:
        network.validate()
    assert "CSR position 1" in str(caught.value)
    return caught


def _csr_graph(bad, tmp_path):
    offsets = array("l", [0, 1, 2])
    with pytest.raises(ValueError) as caught:
        CSRGraph(
            [1, 2], offsets, array("l", [1, 0]), array("d", [2.0, bad]),
            offsets, array("l", [1, 0]), array("d", [bad, 2.0]),
        )
    return caught


def _load_network(bad, tmp_path):
    path = tmp_path / "net.txt"
    path.write_text(f"n 1 0.0 0.0\nn 2 1.0 0.0\ne 1 2 2.0\ne 2 1 {bad!r}\n")
    with pytest.raises(ValueError) as caught:
        load_network(path)
    assert f"net.txt:4: weight {bad!r} on edge 2 -> 1" in str(caught.value)
    return caught


def _import_dimacs(bad, tmp_path):
    path = tmp_path / "bad.gr"
    path.write_text(f"p sp 2 2\na 1 2 3\na 2 1 {bad!r}\n")
    with pytest.raises(IngestError) as caught:
        import_dimacs(path, tmp_path / "table")
    assert caught.value.line == 3
    assert str(caught.value).startswith(f"{path}:3: weight")
    return caught


def _import_csv(bad, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(f"source,target,weight\n1,2,3.0\n2,1,{bad!r}\n")
    with pytest.raises(IngestError) as caught:
        import_csv(path, tmp_path / "table")
    assert caught.value.line == 3
    return caught


def _append_edges(bad, tmp_path):
    writer = ColumnarWriter(tmp_path / "table", "bad")
    writer.append_edges([1], [2], [3.0])
    with pytest.raises(ValueError) as caught:
        writer.append_edges([1, 2, 2], [2, 1, 1], [1.0, bad, 4.0])
    assert str(caught.value).startswith(f"edge weight {bad!r} at edge row 2 ")
    assert writer.num_edges == 1
    return caught


ENTRY_POINTS = [
    _add_edge,
    _update_edge_weight,
    _apply_updates,
    _validate,
    _csr_graph,
    _load_network,
    _import_dimacs,
    _import_csv,
    _append_edges,
]


@pytest.mark.parametrize("bad", BAD_WEIGHTS, ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda entry: entry.__name__[1:])
def test_every_entry_point_refuses_the_weight(entry, bad, tmp_path):
    message = str(entry(bad, tmp_path).value)
    assert "must be positive and finite" in message
    assert "\n" not in message


def test_the_predicate_and_its_vectorized_twin_agree():
    weights = [2.0, 5e-324, 1.7976931348623157e308] + BAD_WEIGHTS
    assert [is_valid_weight(w) for w in weights] == [True] * 3 + [False] * 5
    assert first_invalid_weight(array("d", weights)) == 3
    assert first_invalid_weight(array("d", weights[:3])) is None
    assert first_invalid_weight(array("d")) is None
    for position, bad in enumerate(BAD_WEIGHTS):
        assert first_invalid_weight([1.0] * position + [bad, 0.0]) == position
