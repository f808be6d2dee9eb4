"""Property tests: ``RoadNetwork`` against the dict-of-lists oracle.

Random edit sequences -- node ids added out of order and replaced, parallel
edges, zero-weight edges both must refuse, removals that must pick among
parallel edges, weight updates that may move another parallel edge -- run
against both the production network (CSR arrays plus a staged builder) and
:class:`oracles.dict_network.DictNetwork`.  Every edit must return or raise
the same thing on both, and at every read step every observable must match:
the compiled arrays, node and edge order, per-node spans, weights, the
fingerprint and the pending delta.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.dict_network import DictNetwork, compile_csr
from repro.network.graph import RoadNetwork

CSR_ARRAYS = (
    "fwd_offsets", "fwd_targets", "fwd_weights", "rev_offsets", "rev_targets", "rev_weights"
)

node_ids = st.integers(min_value=-3, max_value=12)
coordinates = st.sampled_from([0.0, 1.5, -2.25, 7.0, 1e-3])
weights = st.sampled_from([0.0, 1.0, 1.0, 2.5, 4.0])
new_weights = st.sampled_from([0.5, 1.0, 2.5, 3.0])
picks = st.integers(min_value=0, max_value=50)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("node"), node_ids, coordinates, coordinates),
        st.tuples(st.just("edge"), picks, picks, weights),
        st.tuples(st.just("edge"), picks, picks, weights),
        st.tuples(st.just("remove"), picks, picks),
        st.tuples(st.just("update"), picks, picks, new_weights),
        st.tuples(st.just("read")),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def outcome(call):
    """A call's return value, or its exception type and message."""
    try:
        return ("ok", call())
    except (KeyError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def assert_same_reads(network: RoadNetwork, oracle: DictNetwork) -> None:
    csr, want = network.ensure_csr(), compile_csr(oracle)
    assert list(csr.ids) == list(want.ids)
    for field in CSR_ARRAYS:
        assert list(getattr(csr, field)) == list(getattr(want, field)), field
    assert network.num_nodes == oracle.num_nodes
    assert network.num_edges == oracle.num_edges
    assert network.node_ids() == oracle.node_ids()
    assert list(network.nodes()) == list(oracle.nodes())
    assert list(network.edges()) == list(oracle.edges())
    for node_id in oracle.node_ids():
        assert network.neighbors(node_id) == oracle.neighbors(node_id)
        assert network.in_neighbors(node_id) == oracle.in_neighbors(node_id)
        for target, _ in oracle.neighbors(node_id):
            assert network.edge_weight(node_id, target) == oracle.edge_weight(
                node_id, target
            )
    assert network.total_weight() == oracle.total_weight()
    assert network.fingerprint() == oracle.fingerprint()
    assert network.pending_delta() == oracle.pending_delta()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(operations)
def test_edit_sequences_match_the_dict_oracle(ops):
    network, oracle = RoadNetwork(name="net"), DictNetwork(name="net")
    for op in ops:
        ids = oracle.node_ids()
        if op[0] == "node":
            _, node_id, x, y = op
            assert network.add_node(node_id, x, y) == oracle.add_node(node_id, x, y)
            continue
        if op[0] == "read":
            assert_same_reads(network, oracle)
            continue
        if op[0] == "clear":
            network.clear_delta()
            oracle.clear_delta()
            continue
        if not ids:
            continue
        source, target = ids[op[1] % len(ids)], ids[op[2] % len(ids)]
        if op[0] == "edge":
            args = (source, target, op[3])
            assert outcome(lambda: network.add_edge(*args)) == outcome(
                lambda: oracle.add_edge(*args)
            )
        elif op[0] == "remove":
            assert outcome(lambda: network.remove_edge(source, target)) == outcome(
                lambda: oracle.remove_edge(source, target)
            )
        else:
            args = (source, target, op[3])
            assert outcome(lambda: network.update_edge_weight(*args)) == outcome(
                lambda: oracle.update_edge_weight(*args)
            )
        assert network.has_node(source) and network.coordinates(source) == (
            oracle.coordinates(source)
        )
    assert_same_reads(network, oracle)
