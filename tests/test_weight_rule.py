"""One weight rule, ``0 < w < inf``, at every way a weight enters.

Each entry point refuses a zero, negative, NaN or infinite weight with its
own typed error -- located where the input has a location -- in a message
of one line.  A snapshot and every update to it also keep the label bound:
no weight below ``(n - 1) * max_weight * 2**-51``.
"""

from __future__ import annotations

import math
from array import array

import pytest

from repro.network.csr import CSRGraph
from repro.network.delta import InvalidUpdateError
from repro.network.graph import RoadNetwork, build_network
from repro.network.ingest import ColumnarWriter, IngestError, import_csv, import_dimacs
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.io import load_network
from repro.network.weights import first_invalid_weight, is_valid_weight, label_floor

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


# ----------------------------------------------------------------------
# The label bound: no weight below a label's precision
# ----------------------------------------------------------------------
def _subnormal_repro() -> RoadNetwork:
    """Edges 0 -> 2 at 1.0 and 2 -> 1 at the smallest subnormal: ``1.0 +
    5e-324 == 1.0``, so node 1 would tie node 2 and settle out of order."""
    network = RoadNetwork(name="subnormal")
    for node in range(3):
        network.add_node(node, float(node), 0.0)
    network.add_edge(0, 2, 1.0)
    network.add_edge(2, 1, 5e-324)
    return network


def test_a_weight_below_the_label_floor_is_refused_where_the_snapshot_compiles():
    network = _subnormal_repro()
    with pytest.raises(ValueError) as caught:
        shortest_path(network, 0, 1)
    message = str(caught.value)
    assert message.startswith("edge weight 5e-324 at CSR position 1 is below ")
    assert "label-precision floor of 3 nodes" in message
    assert "\n" not in message


def test_a_mapped_snapshot_below_the_label_floor_is_refused():
    offsets = array("l", [0, 1, 2, 2])
    with pytest.raises(ValueError, match="at CSR position 1 is below"):
        CSRGraph(
            [0, 1, 2], offsets, array("l", [2, 1]), array("d", [1.0, 5e-324]),
            array("l", [0, 0, 1, 2]), array("l", [2, 0]), array("d", [5e-324, 1.0]),
        )


@pytest.mark.parametrize("weight", [5e-324, 1e-300])
def test_updates_below_the_label_floor_are_refused_before_any_patch(weight):
    network = _pair()
    network.ensure_csr()
    with pytest.raises(InvalidUpdateError) as caught:
        network.apply_updates([(2, 1, 3.0), (1, 2, weight)])
    assert caught.value.index == 1
    assert "label-precision floor of 2 nodes" in str(caught.value)
    assert not network.has_pending_delta
    assert network.edge_weight(2, 1) == 2.0
    with pytest.raises(ValueError, match="label-precision floor"):
        network.update_edge_weight(1, 2, weight)
    assert network.edge_weight(1, 2) == 2.0


def test_an_update_raising_the_largest_weight_is_checked_against_the_smallest():
    """``1e-6`` alone keeps the bound of the pair (floor ``2 * 2**-51``);
    after ``1e10`` in the same batch it does not (floor ``1e10 * 2**-51``)."""
    network = _pair()
    with pytest.raises(InvalidUpdateError) as caught:
        network.apply_updates([(2, 1, 1e10), (1, 2, 1e-6)])
    assert caught.value.index == 1
    assert not network.has_pending_delta
    network.apply_updates([(1, 2, 1e-6)])
    assert network.edge_weight(1, 2) == 1e-6


def test_the_floor_scales_with_nodes_and_largest_weight():
    assert label_floor(1, 1e300) == 0.0
    assert label_floor(3, 1.0) == 2.0 * 2.0**-51
    assert label_floor(28_868, 2.0) == 28_867 * 2.0 * 2.0**-51
