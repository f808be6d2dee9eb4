"""Byte-level sizing of on-air records.

Every broadcast scheme needs to know how many bytes (and therefore packets)
its content occupies.  :class:`RecordLayout` centralizes the field sizes so
that all schemes are compared under identical serialization assumptions --
the property the paper's Table 1 depends on.

Defaults use 4-byte identifiers, coordinates, weights and distances.  ArcFlag
flags are transmitted at two bytes per region per edge -- the packed-bit
in-memory form is a client-side detail, and two bytes per region reproduces
the relative ArcFlag cycle overhead the paper's Table 1 reports (its ArcFlag
cycle is roughly twice Dijkstra's).  NR's local index cells carry a region
identifier in a single byte (the paper never uses more than 128 regions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.network.graph import RoadNetwork

__all__ = ["RecordLayout", "DEFAULT_LAYOUT"]


@dataclass(frozen=True)
class RecordLayout:
    """Field sizes (in bytes) used when serializing content on the air."""

    node_id_bytes: int = 4
    coordinate_bytes: int = 4
    weight_bytes: int = 4
    distance_bytes: int = 4
    offset_bytes: int = 4
    degree_bytes: int = 1
    region_id_bytes: int = 1
    arcflag_region_bytes: int = 2
    quadtree_block_bytes: int = 4

    # ------------------------------------------------------------------
    # Adjacency (the raw network information every scheme broadcasts)
    # ------------------------------------------------------------------
    def adjacency_entry_bytes(self) -> int:
        """One outgoing edge inside a node's adjacency list."""
        return self.node_id_bytes + self.weight_bytes

    def node_record_bytes(self, out_degree: int) -> int:
        """One node's record: id, coordinates, degree, adjacency list."""
        return (
            self.node_id_bytes
            + 2 * self.coordinate_bytes
            + self.degree_bytes
            + out_degree * self.adjacency_entry_bytes()
        )

    def adjacency_bytes(self, network: RoadNetwork, node_ids: Optional[Iterable[int]] = None) -> int:
        """Total bytes of the adjacency records of ``node_ids`` (default: all)."""
        ids = network.node_ids() if node_ids is None else list(node_ids)
        return sum(self.node_record_bytes(network.out_degree(node_id)) for node_id in ids)

    # ------------------------------------------------------------------
    # Pre-computed information of the competitor methods
    # ------------------------------------------------------------------
    def landmark_vector_bytes(self, num_landmarks: int) -> int:
        """Per-node landmark distance vector (to and from each landmark)."""
        return 2 * num_landmarks * self.distance_bytes

    def arcflag_bytes_per_edge(self, num_regions: int) -> int:
        """Per-edge ArcFlag vector as transmitted on the air."""
        return num_regions * self.arcflag_region_bytes

    def spq_bytes(self, total_blocks: int) -> int:
        """Total bytes of all SPQ quad-tree blocks."""
        return total_blocks * self.quadtree_block_bytes

    def search_working_set_bytes(self, num_nodes: int) -> int:
        """A client search's own structures over ``num_nodes`` nodes: a
        distance map, a predecessor map and a heap entry per node."""
        return num_nodes * (3 * self.distance_bytes + self.node_id_bytes)

    def hiti_super_edge_bytes(self) -> int:
        """One HiTi super-edge: two endpoints plus a distance."""
        return 2 * self.node_id_bytes + self.distance_bytes

    # ------------------------------------------------------------------
    # EB / NR index components
    # ------------------------------------------------------------------
    def kd_split_bytes(self, num_regions: int) -> int:
        """First index component: ``n - 1`` kd splitting values."""
        return max(0, num_regions - 1) * self.coordinate_bytes

    def eb_index_bytes(self, num_regions: int) -> int:
        """EB's global index: kd splits, the n x n min/max array A, offsets."""
        matrix = num_regions * num_regions * 2 * self.distance_bytes
        offsets = num_regions * self.offset_bytes
        return self.kd_split_bytes(num_regions) + matrix + offsets

    def eb_cells_per_packet(self) -> int:
        """How many (min, max) cells of A fit in one packet payload."""
        from repro.broadcast.packet import PACKET_PAYLOAD_BYTES

        return max(1, PACKET_PAYLOAD_BYTES // (2 * self.distance_bytes))

    def nr_local_index_bytes(self, num_regions: int) -> int:
        """One NR local index Am: kd splits plus the n x n next-region array."""
        matrix = num_regions * num_regions * self.region_id_bytes
        return self.kd_split_bytes(num_regions) + matrix

    def nr_cells_per_packet(self) -> int:
        """How many next-region cells of Am fit in one packet payload."""
        from repro.broadcast.packet import PACKET_PAYLOAD_BYTES

        return max(1, PACKET_PAYLOAD_BYTES // self.region_id_bytes)


#: Layout shared by all schemes unless a caller overrides it.
DEFAULT_LAYOUT = RecordLayout()
