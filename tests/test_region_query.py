"""The shared EB/NR client's received-node mask (``RegionQuery.received``).

Each region segment carries its nodes' CSR indexes beside their ids; a
query sets every received segment's indexes in one ``uint8`` mask over the
snapshot, which the final search hands to the kernel.  The mask must be
exactly the union of the segments the session received -- lossless or
lossy (lost packets are recovered, the segment still counts as received),
with the Section 6.1 memory bound on or off -- and only the memory-bound
mode keeps per-region id sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.air.base import ClientOptions
from repro.air.region_scheme import RegionQuery
from repro.broadcast.channel import ClientSession
from repro.network.algorithms import kernel


@pytest.fixture(params=["NR", "EB"])
def scheme(request, nr_scheme, eb_scheme):
    return {"NR": nr_scheme, "EB": eb_scheme}[request.param]


@pytest.mark.parametrize("memory_bound", [False, True])
@pytest.mark.parametrize("loss_rate", [0.0, 0.2])
def test_received_mask_is_the_union_of_received_segments(
    scheme, query_pairs, loss_rate, memory_bound, monkeypatch
):
    finished, received = [], []
    finish = RegionQuery.finish
    receive = ClientSession.receive_segment

    def record_finish(query, *args, **kwargs):
        finished.append(query)
        return finish(query, *args, **kwargs)

    def record_receive(session, name):
        received.append(name)
        return receive(session, name)

    monkeypatch.setattr(RegionQuery, "finish", record_finish)
    monkeypatch.setattr(ClientSession, "receive_segment", record_receive)
    options = ClientOptions(memory_bound=memory_bound, loss_rate=loss_rate, loss_seed=3)
    client = scheme.client(options=options)
    channel = scheme.channel(loss_rate=loss_rate, seed=3)
    csr = scheme.network.ensure_csr()
    lost = 0
    for source, target in query_pairs:
        del finished[:], received[:]
        result = client.query(source, target, channel=channel)
        assert result.found
        lost += result.metrics.lost_packets
        (query,) = finished
        names = [name for name in received if name.startswith("region-")]
        assert names, "an EB/NR query receives region segments"
        ids = set()
        for name in names:
            ids.update(scheme.cycle.segment(name).payload["nodes"])
        want = np.zeros(csr.num_nodes, dtype=np.uint8)
        want[[csr.index_of[node] for node in ids]] = 1
        assert query.received.dtype == np.uint8
        assert np.array_equal(query.received, want)
        assert sorted(set(query.regions)) == sorted(
            {scheme.cycle.segment(name).region for name in names}
        )
        if memory_bound:
            assert query.region_nodes == {
                region: {
                    node
                    for name in query.segment_names(region)
                    for node in scheme.cycle.segment(name).payload["nodes"]
                }
                for region in query.regions
            }
        else:
            assert query.region_nodes == {}
    assert (lost > 0) == (loss_rate > 0)


def test_segment_indexes_are_their_nodes_csr_indexes(scheme):
    csr = scheme.network.ensure_csr()
    arena = kernel.arena_for(csr)
    regions = [segment for segment in scheme.cycle if segment.name.startswith("region-")]
    assert len(regions) == 2 * scheme.num_regions
    for segment in regions:
        indexes = segment.payload["indexes"]
        assert indexes.dtype == np.int64
        assert indexes.tolist() == [csr.index_of[node] for node in segment.payload["nodes"]]
    covered = arena.node_mask(
        node for segment in regions for node in segment.payload["nodes"]
    )
    assert covered.all(), "the region segments cover every node"


def test_refresh_keeps_the_index_arrays_of_reused_segments(medium_network):
    """A weight-only refresh reuses a segment whose node list is unchanged,
    index array and all; a re-laid segment maps its new nodes."""
    from repro.air.nr import NextRegionScheme

    network = medium_network.copy()
    network.clear_delta()
    scheme = NextRegionScheme(network, num_regions=8)
    before = {segment.name: segment for segment in scheme.cycle}
    edge = next(iter(network.edges()))
    network.update_edge_weight(
        edge.source, edge.target, network.edge_weight(edge.source, edge.target) * 2.5
    )
    refreshed = scheme.shadow_rebuild(network, network.pending_delta())
    assert refreshed is not None
    csr = network.ensure_csr()
    reused = 0
    for segment in refreshed.cycle:
        if not segment.name.startswith("region-"):
            continue
        old = before[segment.name]
        if old.payload["nodes"] == segment.payload["nodes"]:
            assert segment.payload["indexes"] is old.payload["indexes"]
            reused += 1
        assert segment.payload["indexes"].tolist() == [
            csr.index_of[node] for node in segment.payload["nodes"]
        ]
    assert reused > 0
