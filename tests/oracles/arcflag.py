"""Dict-based reference for the :class:`~repro.index.arcflag.ArcFlagIndex` build.

The production build batches the reverse border sweeps through the kernel
and tests every edge of a sweep in one vectorized pass.  This is the plain
form: one oracle Dijkstra per border node, and the tree test edge by edge.
The flag dict it returns (values *and* key order) is what the index must
hold.
"""

from __future__ import annotations

from typing import Dict, Tuple

from oracles.dijkstra import dijkstra_distances


def build_flags(network, partitioning) -> Dict[Tuple[int, int], int]:
    """Per-edge region bitmasks, keyed in ``network.edges()`` order."""
    flags: Dict[Tuple[int, int], int] = {
        (edge.source, edge.target): 0 for edge in network.edges()
    }
    region_of = partitioning.region_of

    # Intra-region coverage: an edge whose head is in region r may be
    # needed by a path that terminates inside r.
    for (source, target) in flags:
        flags[(source, target)] |= 1 << region_of(target)

    # Inter-region coverage via backward shortest path trees rooted at
    # border nodes.
    for region in range(partitioning.num_regions):
        bit = 1 << region
        for border in partitioning.border_nodes(region):
            distances = dijkstra_distances(network, border, reverse=True).distances
            for (source, target) in flags:
                source_dist = distances.get(source)
                target_dist = distances.get(target)
                if source_dist is None or target_dist is None:
                    continue
                weight = network.edge_weight(source, target)
                if abs(target_dist + weight - source_dist) <= 1e-9 * max(1.0, source_dist):
                    flags[(source, target)] |= bit
    return flags
