"""Property-based tests (hypothesis) for the core data structures."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.air.packing import RowMajorCellPacking, SquareCellPacking
from repro.broadcast.packet import PACKET_PAYLOAD_BYTES, Segment, SegmentKind, packets_for_bytes
from repro.broadcast.cycle import BroadcastCycle
from oracles.bidirectional import bidirectional_dijkstra
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.graph import RoadNetwork
from repro.partitioning.kdtree import KDTreePartitioner
from repro.spatial.hilbert import hilbert_index, hilbert_point


# ----------------------------------------------------------------------
# Random graph strategy
# ----------------------------------------------------------------------
@st.composite
def road_networks(draw, max_nodes=24):
    """Small random connected-ish directed networks with positive weights."""
    num_nodes = draw(st.integers(min_value=2, max_value=max_nodes))
    network = RoadNetwork(name="hypothesis")
    for node_id in range(num_nodes):
        x = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
        y = draw(st.floats(min_value=0, max_value=100, allow_nan=False))
        network.add_node(node_id, x, y)
    # A random spanning chain keeps most node pairs reachable.
    for node_id in range(1, num_nodes):
        weight = draw(st.floats(min_value=0.1, max_value=50, allow_nan=False))
        network.add_bidirectional_edge(node_id - 1, node_id, weight)
    extra_edges = draw(st.integers(min_value=0, max_value=2 * num_nodes))
    for _ in range(extra_edges):
        a = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        b = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if a == b:
            continue
        weight = draw(st.floats(min_value=0.1, max_value=50, allow_nan=False))
        network.add_edge(a, b, weight)
    return network


class TestShortestPathProperties:
    @given(road_networks(), st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_dijkstra_agrees_with_bidirectional(self, network, data):
        source = data.draw(st.integers(min_value=0, max_value=network.num_nodes - 1))
        target = data.draw(st.integers(min_value=0, max_value=network.num_nodes - 1))
        forward = shortest_path(network, source, target)
        both_ways = bidirectional_dijkstra(network, source, target)
        assert math.isclose(forward.distance, both_ways.distance, rel_tol=1e-9, abs_tol=1e-9)

    @given(road_networks(), st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_triangle_inequality_over_intermediate_nodes(self, network, data):
        source = data.draw(st.integers(min_value=0, max_value=network.num_nodes - 1))
        target = data.draw(st.integers(min_value=0, max_value=network.num_nodes - 1))
        middle = data.draw(st.integers(min_value=0, max_value=network.num_nodes - 1))
        direct = shortest_path(network, source, target).distance
        via = (
            shortest_path(network, source, middle).distance
            + shortest_path(network, middle, target).distance
        )
        assert direct <= via + 1e-9 or via == float("inf")

    @given(road_networks(), st.data())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_path_cost_equals_reported_distance(self, network, data):
        from repro.network.algorithms.paths import path_cost, validate_path

        source = data.draw(st.integers(min_value=0, max_value=network.num_nodes - 1))
        target = data.draw(st.integers(min_value=0, max_value=network.num_nodes - 1))
        result = shortest_path(network, source, target)
        if result.found:
            assert validate_path(network, result.path)
            assert math.isclose(path_cost(network, result.path), result.distance, rel_tol=1e-9, abs_tol=1e-9)


class TestKdTreeProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1000, max_value=1000, allow_nan=False),
                st.floats(min_value=-1000, max_value=1000, allow_nan=False),
            ),
            min_size=1,
            max_size=120,
        ),
        st.sampled_from([2, 4, 8, 16]),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_values_round_trip(self, points, regions):
        original = KDTreePartitioner.build(points, regions)
        rebuilt = KDTreePartitioner.from_splitting_values(original.splitting_values(), regions)
        for x, y in points:
            assert original.locate(x, y) == rebuilt.locate(x, y)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=80,
        ),
        st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_point_maps_to_a_valid_region(self, points, regions):
        partitioner = KDTreePartitioner.build(points, regions)
        for x, y in points:
            assert 0 <= partitioner.locate(x, y) < regions


class TestBroadcastProperties:
    @given(st.lists(st.integers(min_value=0, max_value=5_000), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_cycle_length_is_sum_of_segment_packets(self, sizes):
        segments = [
            Segment(f"s{i}", SegmentKind.NETWORK_DATA, size) for i, size in enumerate(sizes)
        ]
        cycle = BroadcastCycle(segments)
        assert cycle.total_packets == sum(packets_for_bytes(size) for size in sizes)

    @given(st.lists(st.integers(min_value=0, max_value=5_000), min_size=1, max_size=20), st.integers(min_value=0, max_value=200))
    @settings(max_examples=80, deadline=None)
    def test_segment_at_is_consistent_with_ranges(self, sizes, probe):
        segments = [
            Segment(f"s{i}", SegmentKind.NETWORK_DATA, size) for i, size in enumerate(sizes)
        ]
        cycle = BroadcastCycle(segments)
        offset = probe % cycle.total_packets
        segment = cycle.segment_at(offset)
        start, length = cycle.segment_range(segment.name)
        assert start <= offset < start + length

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_packets_for_bytes_bounds(self, size):
        packets = packets_for_bytes(size)
        assert packets >= 1
        assert (packets - 1) * PACKET_PAYLOAD_BYTES < max(size, 1) <= packets * PACKET_PAYLOAD_BYTES


class TestPackingProperties:
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_cell_has_exactly_one_packet(self, regions, cells_per_packet, data):
        packing_cls = data.draw(st.sampled_from([SquareCellPacking, RowMajorCellPacking]))
        packing = packing_cls(regions, cells_per_packet)
        row = data.draw(st.integers(min_value=0, max_value=regions - 1))
        col = data.draw(st.integers(min_value=0, max_value=regions - 1))
        packet = packing.packet_of(row, col)
        assert 0 <= packet < packing.num_packets


class TestHilbertProperties:
    @given(st.integers(min_value=1, max_value=7), st.data())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, order, data):
        side = 1 << order
        x = data.draw(st.integers(min_value=0, max_value=side - 1))
        y = data.draw(st.integers(min_value=0, max_value=side - 1))
        assert hilbert_point(order, hilbert_index(order, x, y)) == (x, y)
