"""Unit tests for Dijkstra's algorithm and path helpers.

Point-to-point queries go through :func:`shortest_path`; single-source,
reverse and multi-target searches through the kernel arena that every
pre-computation calls.
"""

import random

import pytest

from oracles.dijkstra import dijkstra_search
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.algorithms.kernel import arena_for
from repro.network.algorithms.paths import (
    INFINITY,
    path_cost,
    reconstruct_path,
    validate_path,
)
from repro.network.graph import RoadNetwork


def diamond_network() -> RoadNetwork:
    """A small diamond with a long direct edge and a shorter two-hop route."""
    network = RoadNetwork()
    for node_id, x, y in [(1, 0, 0), (2, 1, 1), (3, 1, -1), (4, 2, 0)]:
        network.add_node(node_id, x, y)
    network.add_edge(1, 4, 10.0)
    network.add_edge(1, 2, 3.0)
    network.add_edge(2, 4, 3.0)
    network.add_edge(1, 3, 2.0)
    network.add_edge(3, 4, 5.0)
    return network


class TestPointToPoint:
    def test_prefers_cheaper_multi_hop_path(self):
        result = shortest_path(diamond_network(), 1, 4)
        assert result.distance == pytest.approx(6.0)
        assert result.path == [1, 2, 4]

    def test_source_equals_target(self):
        result = shortest_path(diamond_network(), 2, 2)
        assert result.distance == 0.0
        assert result.path == [2]

    def test_unreachable_target(self):
        network = diamond_network()
        network.add_node(99, 5, 5)
        result = shortest_path(network, 1, 99)
        assert result.distance == INFINITY
        assert result.path == []
        assert not result.found

    def test_unknown_nodes_raise(self):
        network = diamond_network()
        with pytest.raises(KeyError):
            shortest_path(network, 123, 1)
        with pytest.raises(KeyError):
            shortest_path(network, 1, 123)

    def test_distance_helper_matches_full_result(self):
        network = diamond_network()
        probe = arena_for(network.ensure_csr()).point_to_point(1, 4)
        assert probe.distance_to(4) == shortest_path(network, 1, 4).distance
        assert probe.path_result(4) == shortest_path(network, 1, 4)

    def test_tied_early_stop_answers_like_the_dict_loop(self):
        """Integer ties, forward and reverse: the answer and every node the
        stopped loop settled -- label, predecessor, path -- are the dict
        loop's.  Node 4 ties between tails 2 and 3 (the lower id wins), and
        reverse from 4, node 1 ties between the same two."""
        network = RoadNetwork()
        for node_id in range(1, 7):
            network.add_node(node_id, float(node_id), 0.0)
        for u, v in [(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (3, 6)]:
            network.add_edge(u, v, 1.0)
        csr = network.ensure_csr()
        arena = arena_for(csr)
        for source, target, reverse in [(1, 4, False), (1, 5, False), (4, 1, True), (6, 2, True)]:
            want = dijkstra_search(network, source, target=target, reverse=reverse)
            got = arena.point_to_point(source, target, reverse=reverse)
            assert got.path_result(target).path == want.path_to(target)
            assert got.settled == want.settled
            for node in want.settled_nodes:
                assert got.distance_to(node) == want.distance_to(node)
                assert got.path_to(node) == want.path_to(node)
                parent = want.predecessors[node]
                assert got.pred[csr.index_of[node]] == (
                    -1 if parent is None else csr.index_of[parent]
                )
        assert arena.point_to_point(1, 4).path_to(4) == [1, 2, 4]
        assert arena.point_to_point(4, 1, reverse=True).path_to(1) == [4, 2, 1]

    def test_path_is_valid_edge_sequence(self):
        network = diamond_network()
        result = shortest_path(network, 1, 4)
        assert validate_path(network, result.path)
        assert path_cost(network, result.path) == pytest.approx(result.distance)

    def test_respects_edge_direction(self):
        network = diamond_network()
        # 4 has no outgoing edges, so nothing is reachable from it.
        assert shortest_path(network, 4, 1).distance == INFINITY


def arena(network):
    return arena_for(network.ensure_csr())


class TestSingleSource:
    def test_distances_match_point_queries(self, small_network):
        rng = random.Random(2)
        nodes = small_network.node_ids()
        source = nodes[0]
        sssp = arena(small_network).sssp(source)
        for target in rng.sample(nodes, 10):
            assert sssp.distance_to(target) == pytest.approx(
                shortest_path(small_network, source, target).distance
            )

    def test_reverse_search_matches_forward_on_reversed_graph(self, small_network):
        nodes = small_network.node_ids()
        source = nodes[3]
        reversed_network = small_network.reversed()
        reverse = arena(small_network).search(source, reverse=True)
        forward_on_reversed = arena(reversed_network).search(source)
        for node in nodes[:25]:
            assert reverse.distance_to(node) == pytest.approx(
                forward_on_reversed.distance_to(node)
            )

    def test_path_to_reconstructs_valid_paths(self, small_network):
        source = small_network.node_ids()[0]
        result = arena(small_network).sssp(source)
        for target in small_network.node_ids()[:20]:
            path = result.path_to(target)
            if result.distance_to(target) != INFINITY and target != source:
                assert path[0] == source and path[-1] == target
                assert validate_path(small_network, path)

    def test_multi_target_settles_all_targets(self, small_network):
        nodes = small_network.node_ids()
        source, targets = nodes[0], set(nodes[5:15])
        result = arena(small_network).multi_target(source, targets)
        full = arena(small_network).sssp(source)
        for target in targets:
            assert result.distance_to(target) == pytest.approx(full.distance_to(target))

    def test_multi_target_early_stop_settles_fewer_nodes(self, small_network):
        nodes = small_network.node_ids()
        source = nodes[0]
        nearby_target = min(
            (n for n in nodes if n != source),
            key=lambda n: small_network.euclidean_distance(source, n),
        )
        limited = arena(small_network).search(source, targets={nearby_target})
        full = arena(small_network).sssp(source)
        assert limited.settled < full.settled


class TestPathHelpers:
    def test_reconstruct_path_missing_target(self):
        assert reconstruct_path({1: None}, 1, 2) == []

    def test_reconstruct_path_detects_cycles(self):
        with pytest.raises(ValueError):
            reconstruct_path({1: 2, 2: 1}, 3, 1)

    def test_path_cost_of_trivial_paths(self, small_network):
        assert path_cost(small_network, []) == 0.0
        assert path_cost(small_network, [small_network.node_ids()[0]]) == 0.0
