"""Unit tests for bidirectional Dijkstra (cross-check implementation)."""

import random

import pytest

from oracles.bidirectional import bidirectional_dijkstra
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.algorithms.paths import INFINITY, path_cost, validate_path


class TestBidirectional:
    def test_agrees_with_unidirectional_on_random_queries(self, small_network):
        rng = random.Random(6)
        nodes = small_network.node_ids()
        for _ in range(15):
            source, target = rng.choice(nodes), rng.choice(nodes)
            expected = shortest_path(small_network, source, target).distance
            result = bidirectional_dijkstra(small_network, source, target)
            assert result.distance == pytest.approx(expected)

    def test_returned_path_is_consistent(self, small_network):
        rng = random.Random(7)
        nodes = small_network.node_ids()
        for _ in range(10):
            source, target = rng.choice(nodes), rng.choice(nodes)
            result = bidirectional_dijkstra(small_network, source, target)
            if result.found and source != target:
                assert result.path[0] == source
                assert result.path[-1] == target
                assert validate_path(small_network, result.path)
                assert path_cost(small_network, result.path) == pytest.approx(result.distance)

    def test_source_equals_target(self, small_network):
        node = small_network.node_ids()[0]
        result = bidirectional_dijkstra(small_network, node, node)
        assert result.distance == 0.0
        assert result.path == [node]

    def test_unreachable_target(self, small_network):
        network = small_network.copy()
        network.add_node(424242, 0.0, 0.0)
        result = bidirectional_dijkstra(network, network.node_ids()[0], 424242)
        assert result.distance == INFINITY

    def test_unknown_nodes_raise(self, small_network):
        with pytest.raises(KeyError):
            bidirectional_dijkstra(small_network, -5, small_network.node_ids()[0])
