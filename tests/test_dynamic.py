"""Unit tests for the dynamic-network subsystem.

Covers the :class:`RoadNetwork` weight-update API and its pending-delta
bookkeeping, the update-stream generators, the scheme-level incremental
rebuild contracts, and the stream-driven fleet simulation.
"""

from __future__ import annotations

import random

import pytest

from repro import air
from repro.dynamic import (
    UPDATE_STREAMS,
    EdgeUpdate,
    congestion_ramp,
    random_closures,
    simulate_update_stream,
)
from repro.engine import AirSystem
from repro.network.delta import InvalidUpdateError, NetworkDelta, WeightChange
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.network.graph import RoadNetwork


@pytest.fixture()
def diamond() -> RoadNetwork:
    """A 4-node diamond with a parallel edge pair on one arm."""
    network = RoadNetwork(name="diamond")
    for node_id, x, y in [(0, 0, 0), (1, 1, 1), (2, 1, -1), (3, 2, 0)]:
        network.add_node(node_id, x, y)
    network.add_edge(0, 1, 2.0)
    network.add_edge(0, 1, 5.0)  # parallel, heavier
    network.add_edge(0, 2, 3.0)
    network.add_edge(1, 3, 2.0)
    network.add_edge(2, 3, 1.0)
    network.clear_delta()
    return network


@pytest.fixture()
def dynamic_network() -> RoadNetwork:
    network = generate_road_network(
        GeneratorConfig(num_nodes=120, num_edges=280, seed=41), name="dynamic-unit"
    )
    network.clear_delta()
    return network


class TestUpdateEdgeWeight:
    def test_updates_weight_and_both_adjacencies(self, diamond):
        change = diamond.update_edge_weight(2, 3, 4.5)
        assert change == WeightChange(2, 3, 1.0, 4.5)
        assert diamond.edge_weight(2, 3) == 4.5
        assert (2, 4.5) in diamond.in_neighbors(3)
        diamond.validate()

    def test_targets_the_minimum_weight_parallel_edge(self, diamond):
        change = diamond.update_edge_weight(0, 1, 3.0)
        assert change.old_weight == 2.0
        # Both parallels remain; the minimum is now the updated one.
        assert sorted(w for t, w in diamond.neighbors(0) if t == 1) == [3.0, 5.0]

    def test_nonexistent_edge_raises_keyerror(self, diamond):
        with pytest.raises(KeyError):
            diamond.update_edge_weight(3, 0, 1.0)
        with pytest.raises(KeyError):
            diamond.update_edge_weight(99, 0, 1.0)

    @pytest.mark.parametrize("weight", [0.0, -1.0, -0.0])
    def test_non_positive_weight_raises_valueerror(self, diamond, weight):
        with pytest.raises(ValueError):
            diamond.update_edge_weight(0, 2, weight)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_raises_valueerror(self, diamond, weight):
        before = diamond.fingerprint()
        with pytest.raises(ValueError, match="finite"):
            diamond.update_edge_weight(0, 2, weight)
        assert diamond.edge_weight(0, 2) == 3.0
        assert diamond.fingerprint() == before
        assert not diamond.has_pending_delta

    def test_remove_edge_of_nonexistent_edge_raises_keyerror(self, diamond):
        with pytest.raises(KeyError):
            diamond.remove_edge(3, 0)
        with pytest.raises(KeyError):
            diamond.remove_edge(0, 99)

    def test_fingerprint_tracks_updates_and_reverts(self, diamond):
        base = diamond.fingerprint()
        diamond.update_edge_weight(0, 2, 7.0)
        mutated = diamond.fingerprint()
        assert mutated != base
        assert diamond.copy().fingerprint() == mutated
        diamond.update_edge_weight(0, 2, 3.0)
        assert diamond.fingerprint() == base


class TestPendingDelta:
    def test_apply_updates_accepts_tuples_and_records(self, diamond):
        changes = diamond.apply_updates([(0, 2, 6.0), EdgeUpdate(2, 3, 2.5)])
        assert [c.new_weight for c in changes] == [6.0, 2.5]
        delta = diamond.pending_delta()
        assert not delta.structural
        assert delta.dirty_nodes == frozenset({0, 2, 3})
        assert len(delta.changes) == 2

    @pytest.mark.parametrize(
        "bad, reason",
        [
            ((3, 0, 1.0), "no edge 3 -> 0"),
            ((99, 0, 1.0), "no edge 99 -> 0"),
            ((0, 2, 0.0), "positive and finite"),
            ((0, 2, -2.0), "positive and finite"),
            ((0, 2, float("nan")), "positive and finite"),
            ((0, 2, float("inf")), "positive and finite"),
            ((0, 2), "expected (source, target, weight)"),
            ((0, 2, 1.0, 4), "expected (source, target, weight)"),
            ((0.0, 2, 1.0), "expected (source, target, weight)"),
            ((0, 2, "heavy"), "expected (source, target, weight)"),
            (None, "expected (source, target, weight)"),
        ],
    )
    def test_invalid_update_rejects_the_whole_batch(self, diamond, bad, reason):
        before = diamond.fingerprint()
        with pytest.raises(InvalidUpdateError) as info:
            diamond.apply_updates([(0, 2, 6.0), EdgeUpdate(2, 3, 2.5), bad, (1, 3, 4.0)])
        assert info.value.index == 2
        assert str(info.value).startswith("update 2: ")
        assert reason in str(info.value)
        # Nothing before the bad update was applied.
        assert diamond.fingerprint() == before
        assert diamond.edge_weight(0, 2) == 3.0
        assert diamond.edge_weight(2, 3) == 1.0
        assert not diamond.has_pending_delta
        diamond.validate()

    def test_invalid_update_error_is_a_valueerror(self, diamond):
        with pytest.raises(ValueError):
            diamond.apply_updates([(3, 0, 1.0)])

    def test_batch_accepts_integer_like_ids(self, diamond):
        class Id:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        (change,) = diamond.apply_updates([(Id(0), Id(2), 6)])
        assert change == WeightChange(0, 2, 3.0, 6.0)
        assert type(change.source) is int and type(change.new_weight) is float

    def test_changes_coalesce_per_edge(self, diamond):
        diamond.update_edge_weight(0, 2, 6.0)
        diamond.update_edge_weight(0, 2, 9.0)
        delta = diamond.pending_delta()
        assert delta.changes == (WeightChange(0, 2, 3.0, 9.0),)

    def test_reverted_update_leaves_no_change(self, diamond):
        diamond.update_edge_weight(0, 2, 6.0)
        diamond.update_edge_weight(0, 2, 3.0)
        delta = diamond.pending_delta()
        assert delta.changes == ()
        assert delta.dirty_nodes  # the touch is still recorded
        assert not diamond.pending_delta().structural

    def test_noop_update_records_nothing(self, diamond):
        change = diamond.update_edge_weight(0, 2, 3.0)
        assert change.is_noop
        assert not diamond.has_pending_delta

    def test_structural_mutations_set_the_flag(self, diamond):
        diamond.add_edge(3, 0, 1.0)
        assert diamond.pending_delta().structural
        diamond.clear_delta()
        diamond.remove_edge(3, 0)
        assert diamond.pending_delta().structural
        diamond.clear_delta()
        diamond.add_node(9, 5.0, 5.0)
        delta = diamond.pending_delta()
        assert delta.structural and 9 in delta.dirty_nodes

    def test_clear_delta_resets_everything(self, diamond):
        diamond.update_edge_weight(0, 2, 6.0)
        diamond.add_node(9, 5.0, 5.0)
        diamond.clear_delta()
        assert diamond.pending_delta() == NetworkDelta()
        assert not diamond.has_pending_delta

    def test_dirty_regions_maps_through_a_partitioning(self, dynamic_network):
        from repro.partitioning.kdtree import build_kdtree_partitioning

        partitioning = build_kdtree_partitioning(dynamic_network, 8)
        edge = next(iter(dynamic_network.edges()))
        dynamic_network.update_edge_weight(
            edge.source, edge.target, dynamic_network.edge_weight(edge.source, edge.target) * 2
        )
        regions = dynamic_network.pending_delta().dirty_regions(partitioning)
        assert regions == {
            partitioning.region_of(edge.source),
            partitioning.region_of(edge.target),
        }


class TestUpdateStreams:
    def test_congestion_ramp_is_deterministic_and_triangular(self, dynamic_network):
        first = congestion_ramp(dynamic_network, steps=5, seed=9, peak_factor=3.0)
        second = congestion_ramp(dynamic_network, steps=5, seed=9, peak_factor=3.0)
        assert first == second
        assert len(first) == 5 and first.num_updates > 0
        labels = [batch.label for batch in first]
        assert labels[0] == "congestion x1.00"
        assert labels[2] == "congestion x3.00"  # peak at mid-stream
        assert labels[-1] == "congestion x1.00"
        # Absolute targets: replaying the whole ramp returns to base weights.
        base = dynamic_network.fingerprint()
        for batch in first:
            dynamic_network.apply_updates(batch.updates)
        assert dynamic_network.fingerprint() == base

    def test_congestion_ramp_validates_arguments(self, dynamic_network):
        with pytest.raises(ValueError):
            congestion_ramp(dynamic_network, steps=0)
        with pytest.raises(ValueError):
            congestion_ramp(dynamic_network, peak_factor=0.0)
        empty = RoadNetwork()
        empty.add_node(0, 0, 0)
        with pytest.raises(ValueError):
            congestion_ramp(empty)

    def test_random_closures_close_and_reopen(self, dynamic_network):
        stream = random_closures(
            dynamic_network, steps=6, seed=4, closures_per_step=2, reopen_after=2
        )
        assert len(stream) == 6
        closed = {}
        base = {}
        for batch in stream:
            for update in batch.updates:
                key = (update.source, update.target)
                if key in closed:
                    # A reopen restores the recorded base weight exactly.
                    assert update.weight == base[key]
                    del closed[key]
                else:
                    base.setdefault(key, dynamic_network.edge_weight(*key))
                    assert update.weight == pytest.approx(base[key] * 25.0)
                    closed[key] = batch.step
        # Streams apply cleanly to the live network.
        for batch in stream:
            dynamic_network.apply_updates(batch.updates)
        dynamic_network.validate()

    def test_registry_names_the_builtin_streams(self):
        assert set(UPDATE_STREAMS) == {"congestion", "closures"}


class TestIncrementalRebuildContract:
    def test_structural_delta_is_refused_by_every_incremental_scheme(
        self, dynamic_network
    ):
        nodes = dynamic_network.node_ids()
        for name, params in [("DJ", {}), ("NR", {"num_regions": 8}), ("HiTi", {"num_regions": 8})]:
            scheme = air.create(name, dynamic_network, **params)
            scheme.cycle
            dynamic_network.add_edge(nodes[0], nodes[-1], 11.0)
            delta = dynamic_network.pending_delta()
            assert scheme.shadow_rebuild(dynamic_network, delta) is None
            dynamic_network.remove_edge(nodes[0], nodes[-1])
            dynamic_network.clear_delta()

    def test_foreign_network_is_refused(self, dynamic_network):
        scheme = air.create("DJ", dynamic_network)
        other = dynamic_network.copy()
        edge = next(iter(other.edges()))
        other.update_edge_weight(edge.source, edge.target, edge.weight + 1.0)
        assert scheme.shadow_rebuild(other, other.pending_delta()) is None

    def test_default_hook_declines(self, dynamic_network):
        for name, params in [("AF", {"num_regions": 8}), ("LD", {"num_landmarks": 2})]:
            scheme = air.create(name, dynamic_network, **params)
            scheme.cycle
            edge = next(iter(dynamic_network.edges()))
            dynamic_network.update_edge_weight(
                edge.source, edge.target, dynamic_network.edge_weight(edge.source, edge.target) * 1.5
            )
            delta = dynamic_network.pending_delta()
            assert scheme.shadow_rebuild(dynamic_network, delta) is None
            dynamic_network.clear_delta()

    def test_refresh_accounting_reaches_server_metrics(self, dynamic_network):
        scheme = air.create("DJ", dynamic_network)
        scheme.cycle
        edge = next(iter(dynamic_network.edges()))
        dynamic_network.update_edge_weight(
            edge.source, edge.target, dynamic_network.edge_weight(edge.source, edge.target) * 1.5
        )
        replacement = scheme.shadow_rebuild(dynamic_network, dynamic_network.pending_delta())
        assert replacement is not None and replacement is not scheme
        dynamic_network.clear_delta()
        metrics = replacement.server_metrics()
        assert metrics.refreshes == 1
        assert metrics.refresh_seconds >= 0.0
        assert scheme.server_metrics().refreshes == 0


class TestSimulateUpdateStream:
    @pytest.fixture()
    def system(self, dynamic_network):
        return AirSystem(dynamic_network)

    def test_stream_run_is_exact_and_incremental(self, system):
        stream = congestion_ramp(system.network, steps=4, seed=3)
        run = system.simulate_update_stream(
            "NR", stream, devices_per_step=8, seed=5, num_regions=8
        )
        assert len(run.steps) == 4
        assert run.num_devices == 32
        assert run.mismatches == 0
        assert run.full_rebuilds == 0
        # x1.0 and repeated-peak steps are genuine no-ops.
        assert run.incremental_refreshes == 2
        assert run.refresh_seconds >= 0.0

    def test_concurrency_does_not_change_stream_results(self, dynamic_network):
        def run_once(concurrency):
            network = dynamic_network.copy()
            network.clear_delta()
            system = AirSystem(network)
            stream = random_closures(network, steps=3, seed=11)
            return system.simulate_update_stream(
                "DJ",
                stream,
                devices_per_step=10,
                seed=2,
                concurrency=concurrency,
            )

        sequential = run_once(1)
        threaded = run_once(4)
        assert sequential.signature() == threaded.signature()
        assert sequential.mismatches == threaded.mismatches == 0

    def test_scenario_accepts_names_and_callables(self, system):
        from repro.experiments import fleet_hot_destination

        stream = random_closures(system.network, steps=2, seed=1)
        by_name = system.simulate_update_stream(
            "DJ", stream, devices_per_step=6, seed=3, scenario="hot-destination"
        )
        assert by_name.mismatches == 0
        network = system.network
        run = simulate_update_stream(
            system,
            "DJ",
            random_closures(network, steps=1, seed=2),
            devices_per_step=6,
            seed=3,
            scenario=fleet_hot_destination,
        )
        assert run.mismatches == 0
