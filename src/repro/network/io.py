"""Plain-text persistence for road networks.

The format is the common node-list / edge-list pair used by road-network
benchmarks::

    # nodes
    n <id> <x> <y>
    ...
    # edges
    e <source> <target> <weight>
    ...

Both sections live in a single file; lines starting with ``#`` are comments.
"""

from __future__ import annotations

import math
import os
from typing import Union

from repro.network.graph import RoadNetwork
from repro.network.weights import RULE, is_valid_weight

__all__ = ["save_network", "load_network"]


def save_network(network: RoadNetwork, path: Union[str, os.PathLike]) -> None:
    """Write ``network`` to ``path`` in the node/edge list format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# road network: {network.name}\n")
        handle.write(f"# nodes: {network.num_nodes} edges: {network.num_edges}\n")
        for node in network.nodes():
            handle.write(f"n {node.node_id} {node.x!r} {node.y!r}\n")
        for edge in network.edges():
            handle.write(f"e {edge.source} {edge.target} {edge.weight!r}\n")


def load_network(path: Union[str, os.PathLike], name: str = "") -> RoadNetwork:
    """Read a network previously written by :func:`save_network`.

    Malformed input is rejected with a ``ValueError`` whose message starts
    with ``{path}:{line}``: unrecognized lines, duplicate node ids (which
    ``RoadNetwork.add_node`` would otherwise silently overwrite), edges
    referencing undeclared nodes (otherwise a bare ``KeyError`` from deep
    inside the graph), NaN or infinite coordinates, and weights that break
    the weight rule (zero, negative, NaN or infinite).
    """
    network = RoadNetwork(name=name or os.path.basename(str(path)))
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if fields[0] == "n" and len(fields) == 4:
                try:
                    node_id = int(fields[1])
                    x = float(fields[2])
                    y = float(fields[3])
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_number}: malformed node line {line!r}"
                    ) from None
                if network.has_node(node_id):
                    raise ValueError(
                        f"{path}:{line_number}: duplicate node id {node_id}"
                    )
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(
                        f"{path}:{line_number}: non-finite coordinates "
                        f"({fields[2]}, {fields[3]}) for node {node_id}"
                    )
                network.add_node(node_id, x, y)
            elif fields[0] == "e" and len(fields) == 4:
                try:
                    source = int(fields[1])
                    target = int(fields[2])
                    weight = float(fields[3])
                except ValueError:
                    raise ValueError(
                        f"{path}:{line_number}: malformed edge line {line!r}"
                    ) from None
                if not is_valid_weight(weight):
                    raise ValueError(
                        f"{path}:{line_number}: weight {fields[3]} on edge "
                        f"{source} -> {target} {RULE}"
                    )
                for endpoint in (source, target):
                    if not network.has_node(endpoint):
                        raise ValueError(
                            f"{path}:{line_number}: edge references "
                            f"undeclared node {endpoint}"
                        )
                network.add_edge(source, target, weight)
            else:
                raise ValueError(f"{path}:{line_number}: unrecognized line {line!r}")
    network.clear_delta()  # a loaded file is a baseline, not pending updates
    return network
