"""Tests for Section 6.1 memory-bound processing (super-edge compression)."""

import pytest

from repro.air.memory_bound import (
    SuperEdgeGraph,
    compress_region,
    shortest_path_on_overlay,
)
from repro.air.records import DEFAULT_LAYOUT
from repro.network.algorithms.dijkstra import shortest_path
from repro.network.algorithms.paths import INFINITY, path_cost, validate_path


class TestSuperEdgeGraph:
    def test_add_edge_tracks_size(self):
        overlay = SuperEdgeGraph()
        overlay.add_edge(1, 2, 3.0, DEFAULT_LAYOUT)
        assert overlay.size_bytes == 12
        assert overlay.adjacency[1] == [(2, 3.0)]

    def test_add_super_edge_stores_expansion(self):
        overlay = SuperEdgeGraph()
        overlay.add_super_edge(1, 4, 6.0, [1, 2, 3, 4], DEFAULT_LAYOUT)
        assert overlay.expansions[(1, 4)] == [1, 2, 3, 4]
        assert overlay.size_bytes == 12 + 4 * 4

    def test_expand_path_replaces_super_edges(self):
        overlay = SuperEdgeGraph()
        overlay.add_super_edge(1, 4, 6.0, [1, 2, 3, 4], DEFAULT_LAYOUT)
        overlay.add_edge(4, 5, 1.0, DEFAULT_LAYOUT)
        assert overlay.expand_path([1, 4, 5]) == [1, 2, 3, 4, 5]

    def test_expand_empty_path(self):
        assert SuperEdgeGraph().expand_path([]) == []


class TestCompressRegion:
    def test_super_edges_connect_terminals(self, grid_network):
        """On a grid quadrant (internally connected) every border pair gets a
        super-edge, and each expansion starts/ends at its endpoints."""
        from repro.partitioning.base import Partitioning
        from repro.partitioning.grid import GridPartitioner

        partitioning = Partitioning(
            grid_network, GridPartitioner(grid_network.bounding_box(), 2, 2)
        )
        overlay = SuperEdgeGraph()
        nodes = partitioning.nodes_in_region(0)
        borders = partitioning.border_nodes(0)
        added = compress_region(
            overlay, grid_network, nodes, borders, extra_terminals=(), layout=DEFAULT_LAYOUT
        )
        assert added == len(borders) * (len(borders) - 1)
        for (u, v), path in overlay.expansions.items():
            assert path[0] == u and path[-1] == v

    def test_super_edge_weights_match_region_internal_paths(self, small_network, small_partitioning):
        overlay = SuperEdgeGraph()
        region = max(
            range(small_partitioning.num_regions),
            key=lambda r: len(small_partitioning.nodes_in_region(r)),
        )
        nodes = set(small_partitioning.nodes_in_region(region))
        borders = small_partitioning.border_nodes(region)
        compress_region(
            overlay, small_network, nodes, borders, extra_terminals=(), layout=DEFAULT_LAYOUT
        )
        for (u, v), path in overlay.expansions.items():
            assert set(path) <= nodes
            assert validate_path(small_network, path)
            weight = next(w for t, w in overlay.adjacency[u] if t == v)
            assert weight == pytest.approx(path_cost(small_network, path))


class TestOverlaySearch:
    def test_unknown_source_returns_infinity(self):
        distance, path, _ = shortest_path_on_overlay(SuperEdgeGraph(), 1, 2)
        assert distance == INFINITY
        assert path == []

    def test_overlay_result_connects_endpoints_with_exact_distance(
        self, eb_scheme, medium_network, query_pairs
    ):
        client = eb_scheme.client(memory_bound=True)
        source, target = query_pairs[0]
        result = client.query(source, target)
        expected = shortest_path(medium_network, source, target).distance
        assert result.path[0] == source
        assert result.path[-1] == target
        assert result.distance == pytest.approx(expected)

    def test_expansions_kept_for_terminal_regions(self, nr_scheme, medium_network):
        """Inside the source region the returned path is fully detailed.

        The super-edge from the source to the border node it leaves through
        keeps its expansion, so the path's leading run of source-region
        nodes is a real network path.  The fixed pair leaves its region
        after seven nodes.
        """
        source, target = 8, 74
        partitioning = nr_scheme.partitioning
        home = partitioning.region_of(source)
        assert partitioning.region_of(target) != home
        result = nr_scheme.client(memory_bound=True).query(source, target)
        assert result.distance == pytest.approx(
            shortest_path(medium_network, source, target).distance
        )
        prefix = []
        for node in result.path:
            if partitioning.region_of(node) != home:
                break
            prefix.append(node)
        assert prefix[0] == source
        assert len(prefix) == 7
        assert validate_path(medium_network, prefix)


class TestMemorySavings:
    @pytest.fixture(scope="class")
    def coarse_nr_scheme(self, medium_network):
        """Fewer, larger regions: the regime where super-edge compression pays
        (the paper's regions hold ~900 nodes each)."""
        from repro.air import NextRegionScheme

        return NextRegionScheme(medium_network, num_regions=4)

    def test_memory_bound_reduces_peak_memory_on_average(self, coarse_nr_scheme, query_pairs):
        """The paper reports roughly 35% lower peak memory (Figure 13a)."""
        plain = coarse_nr_scheme.client(memory_bound=False)
        bound = coarse_nr_scheme.client(memory_bound=True)
        plain_total = 0
        bound_total = 0
        for source, target in query_pairs[:10]:
            plain_total += plain.query(source, target).metrics.peak_memory_bytes
            bound_total += bound.query(source, target).metrics.peak_memory_bytes
        assert bound_total < plain_total

    def test_memory_bound_costs_more_cpu(self, nr_scheme, query_pairs):
        """Figure 13b: the saving is paid for with client-side computation."""
        plain = nr_scheme.client(memory_bound=False)
        bound = nr_scheme.client(memory_bound=True)
        plain_cpu = sum(plain.query(s, t).metrics.cpu_seconds for s, t in query_pairs[:8])
        bound_cpu = sum(bound.query(s, t).metrics.cpu_seconds for s, t in query_pairs[:8])
        assert bound_cpu > plain_cpu > 0.0
