"""Road-network substrate: graphs, generators, datasets, and algorithms."""

from repro.network.csr import CSRGraph
from repro.network.delta import (
    EdgeUpdate,
    InvalidUpdateError,
    NetworkDelta,
    WeightChange,
)
from repro.network.graph import Edge, Node, RoadNetwork
from repro.network.generators import (
    GeneratorConfig,
    generate_grid_network,
    generate_road_network,
)
from repro.network import algorithms, datasets, io

__all__ = [
    "CSRGraph",
    "Edge",
    "EdgeUpdate",
    "InvalidUpdateError",
    "NetworkDelta",
    "Node",
    "RoadNetwork",
    "WeightChange",
    "GeneratorConfig",
    "generate_grid_network",
    "generate_road_network",
    "algorithms",
    "datasets",
    "io",
]
