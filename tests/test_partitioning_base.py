"""Unit tests for the Partitioning abstraction (regions and border nodes)."""

import numpy as np
import pytest

from repro.network.generators import generate_grid_network
from repro.partitioning.base import Partitioning
from repro.partitioning.grid import GridPartitioner
from repro.partitioning.kdtree import build_kdtree_partitioning


class TestRegionMembership:
    def test_region_of_matches_locator(self, small_network, small_partitioning):
        for node in small_network.nodes():
            assert small_partitioning.region_of(node.node_id) == small_partitioning.region_of_point(
                node.x, node.y
            )

    def test_nodes_in_region_partition_the_network(self, small_network, small_partitioning):
        all_nodes = []
        for region in range(small_partitioning.num_regions):
            all_nodes.extend(small_partitioning.nodes_in_region(region))
        assert sorted(all_nodes) == sorted(small_network.node_ids())

    def test_non_empty_regions_listed(self, small_partitioning):
        non_empty = small_partitioning.non_empty_regions()
        for region in non_empty:
            assert small_partitioning.nodes_in_region(region)

    def test_locator_out_of_range_rejected(self, small_network):
        class BrokenLocator:
            num_regions = 4

            def locate(self, x, y):
                return 7

            def locate_many(self, xs, ys):
                return np.full(len(xs), 7)

        with pytest.raises(ValueError):
            Partitioning(small_network, BrokenLocator())


class TestBorderNodes:
    def test_border_nodes_have_foreign_neighbors(self, small_network, small_partitioning):
        for region in range(small_partitioning.num_regions):
            for border in small_partitioning.border_nodes(region):
                neighbors = [n for n, _ in small_network.neighbors(border)] + [
                    n for n, _ in small_network.in_neighbors(border)
                ]
                assert any(
                    small_partitioning.region_of(n) != region for n in neighbors
                )

    def test_non_border_nodes_have_only_local_neighbors(self, small_network, small_partitioning):
        for region in range(small_partitioning.num_regions):
            border = set(small_partitioning.border_nodes(region))
            for node in small_partitioning.nodes_in_region(region):
                if node in border:
                    continue
                neighbors = [n for n, _ in small_network.neighbors(node)] + [
                    n for n, _ in small_network.in_neighbors(node)
                ]
                assert all(small_partitioning.region_of(n) == region for n in neighbors)

    def test_is_border_node_consistent_with_lists(self, small_partitioning):
        for region in range(small_partitioning.num_regions):
            for node in small_partitioning.border_nodes(region):
                assert small_partitioning.is_border_node(node)

    def test_single_region_has_no_border_nodes(self, small_network):
        partitioning = Partitioning(
            small_network, GridPartitioner(small_network.bounding_box(), 1, 1)
        )
        assert partitioning.border_nodes(0) == []

    def test_grid_network_border_counts(self):
        """On a 4x4 grid split into 4 quadrant regions, exactly the nodes
        adjacent to the split lines are border nodes."""
        network = generate_grid_network(rows=4, cols=4, extent=300.0, seed=0)
        partitioning = Partitioning(network, GridPartitioner(network.bounding_box(), 2, 2))
        # Every node in a 2x2 quadrant of a 4x4 grid touches another quadrant
        # except the outer corner node: 3 border nodes per region... actually
        # in a 2x2 block, the corner node away from both split lines has
        # neighbors only within its own block.
        for region in range(4):
            assert len(partitioning.border_nodes(region)) == 3


class TestRegionAdjacency:
    def test_region_adjacency_symmetric_for_bidirectional_networks(self, small_network, small_partitioning):
        adjacency = small_partitioning.region_adjacency()
        for region, neighbors in adjacency.items():
            for other in neighbors:
                assert region in adjacency[other]

    def test_region_adjacency_excludes_self(self, small_partitioning):
        adjacency = small_partitioning.region_adjacency()
        for region, neighbors in adjacency.items():
            assert region not in neighbors
