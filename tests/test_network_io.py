"""Unit tests for road-network persistence."""

import pytest

from repro.network.generators import GeneratorConfig, generate_road_network
from repro.network.io import load_network, save_network


class TestRoundTrip:
    def test_round_trip_preserves_topology(self, tmp_path):
        network = generate_road_network(GeneratorConfig(num_nodes=80, num_edges=180, seed=3))
        path = tmp_path / "network.txt"
        save_network(network, path)
        restored = load_network(path)
        assert restored.num_nodes == network.num_nodes
        assert restored.num_edges == network.num_edges
        original_edges = sorted((e.source, e.target, e.weight) for e in network.edges())
        restored_edges = sorted((e.source, e.target, e.weight) for e in restored.edges())
        assert restored_edges == original_edges

    def test_round_trip_preserves_coordinates_exactly(self, tmp_path):
        network = generate_road_network(GeneratorConfig(num_nodes=60, num_edges=140, seed=4))
        path = tmp_path / "network.txt"
        save_network(network, path)
        restored = load_network(path)
        for node in network.nodes():
            assert restored.node(node.node_id).x == node.x
            assert restored.node(node.node_id).y == node.y

    def test_load_assigns_name(self, tmp_path):
        network = generate_road_network(GeneratorConfig(num_nodes=50, num_edges=110, seed=5))
        path = tmp_path / "net.rn"
        save_network(network, path)
        assert load_network(path, name="custom").name == "custom"
        assert load_network(path).name == "net.rn"

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text("n 1 0.0 0.0\nx whatever\n")
        with pytest.raises(ValueError, match="broken.txt:2"):
            load_network(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("# header\n\nn 1 0.0 0.0\nn 2 1.0 0.0\ne 1 2 2.0\n")
        network = load_network(path)
        assert network.num_nodes == 2
        assert network.edge_weight(1, 2) == 2.0


class TestValidation:
    """Regression corpus for the {path}:{line} validation sweep."""

    def _load_expecting(self, tmp_path, content, location, fragment):
        path = tmp_path / "net.txt"
        path.write_text(content)
        with pytest.raises(ValueError) as excinfo:
            load_network(path)
        message = str(excinfo.value)
        assert f"net.txt:{location}" in message
        assert fragment in message

    def test_duplicate_node_id(self, tmp_path):
        self._load_expecting(
            tmp_path,
            "n 1 0.0 0.0\nn 1 1.0 1.0\n",
            2,
            "duplicate node id 1",
        )

    def test_edge_references_undeclared_node(self, tmp_path):
        self._load_expecting(
            tmp_path,
            "n 1 0.0 0.0\ne 1 9 2.0\n",
            2,
            "undeclared node 9",
        )

    def test_non_finite_coordinates(self, tmp_path):
        self._load_expecting(
            tmp_path,
            "n 1 nan 0.0\n",
            1,
            "non-finite coordinates",
        )
        self._load_expecting(
            tmp_path,
            "n 1 0.0 inf\n",
            1,
            "non-finite coordinates",
        )

    def test_non_finite_weight(self, tmp_path):
        self._load_expecting(
            tmp_path,
            "n 1 0.0 0.0\nn 2 1.0 0.0\ne 1 2 nan\n",
            3,
            "weight nan on edge 1 -> 2 must be positive and finite",
        )

    def test_negative_weight(self, tmp_path):
        self._load_expecting(
            tmp_path,
            "n 1 0.0 0.0\nn 2 1.0 0.0\ne 1 2 -3\n",
            3,
            "weight -3 on edge 1 -> 2 must be positive and finite",
        )

    def test_malformed_node_and_edge_lines(self, tmp_path):
        self._load_expecting(tmp_path, "n 1 zero 0.0\n", 1, "malformed node line")
        self._load_expecting(
            tmp_path,
            "n 1 0.0 0.0\nn 2 1.0 0.0\ne 1 2 heavy\n",
            3,
            "malformed edge line",
        )
