"""Unit tests for the reference A* (``tests/oracles/astar.py``).

The Landmark and ArcFlag clients search through the kernel; this loop is
the oracle their property tests compare against, so it is checked here on
its own: against Dijkstra, with guiding bounds, and with edge filters.
"""

import random

import pytest

from oracles.astar import astar_search
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.algorithms.paths import INFINITY


class TestAStar:
    def test_zero_heuristic_equals_dijkstra(self, small_network):
        rng = random.Random(3)
        nodes = small_network.node_ids()
        for _ in range(10):
            source, target = rng.choice(nodes), rng.choice(nodes)
            expected = shortest_path(small_network, source, target).distance
            assert astar_search(small_network, source, target).distance == pytest.approx(expected)

    def test_admissible_heuristic_preserves_optimality(self, small_network):
        # A scaled-down Euclidean distance is admissible on this generator
        # because edge weights never drop below 70% of the Euclidean length
        # and highways never below 60%.
        def heuristic(node, target):
            return 0.5 * small_network.euclidean_distance(node, target)

        rng = random.Random(4)
        nodes = small_network.node_ids()
        for _ in range(10):
            source, target = rng.choice(nodes), rng.choice(nodes)
            expected = shortest_path(small_network, source, target).distance
            result = astar_search(small_network, source, target, lower_bound=heuristic)
            assert result.distance == pytest.approx(expected)

    def test_good_heuristic_settles_fewer_nodes(self, small_network):
        def heuristic(node, target):
            return 0.5 * small_network.euclidean_distance(node, target)

        nodes = small_network.node_ids()
        source, target = nodes[0], nodes[-1]
        plain = astar_search(small_network, source, target)
        guided = astar_search(small_network, source, target, lower_bound=heuristic)
        assert guided.settled <= plain.settled
        assert guided.distance == pytest.approx(plain.distance)

    def test_edge_filter_blocks_paths(self, grid_network):
        nodes = grid_network.node_ids()
        source, target = nodes[0], nodes[-1]
        blocked = astar_search(grid_network, source, target, edge_filter=lambda u, v: False)
        assert blocked.distance == INFINITY

    def test_edge_filter_allows_unrelated_edges(self, grid_network):
        nodes = grid_network.node_ids()
        source, target = nodes[0], nodes[-1]
        unfiltered = astar_search(grid_network, source, target)
        filtered = astar_search(
            grid_network, source, target, edge_filter=lambda u, v: True
        )
        assert filtered.distance == pytest.approx(unfiltered.distance)

    def test_unknown_endpoint_raises(self, grid_network):
        with pytest.raises(KeyError):
            astar_search(grid_network, -1, 0)
        with pytest.raises(KeyError):
            astar_search(grid_network, 0, 10_000)
