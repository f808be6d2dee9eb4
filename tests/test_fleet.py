"""Tests for the fleet subsystem: replay fidelity, simulator, scenarios."""

import math
import statistics

import pytest

from repro.broadcast.channel import ClientSession
from repro.broadcast.replay import RecordingSession
from repro.broadcast.replay_bulk import TraceTable, replay_trace_bulk
from repro.engine import AirSystem
from repro.experiments import (
    ExperimentConfig,
    fleet_hot_destination,
    fleet_rush_hour,
    fleet_uniform_trickle,
)
from repro.fleet import DeviceSpec, simulate_fleet
from repro.network.algorithms.dijkstra import shortest_path

from oracles.fleet import partition_fleet as oracle_partition


def replay_one(trace, cycle, offset):
    """One device's replay through the bulk kernel, as plain ints."""
    layout = cycle.compiled_layout()
    outcome = replay_trace_bulk(TraceTable.compile(trace, layout), layout, [offset])
    return outcome.tuning_packets, int(outcome.access_latency_packets[0])


@pytest.fixture(scope="module")
def probe_offsets(medium_network, dj_scheme):
    """A spread of tune-in offsets covering segment boundaries and interiors."""
    total = dj_scheme.cycle.total_packets
    return [0, 1, total // 3, total // 2, total - 1]


class TestReplayFidelity:
    def test_replay_matches_native_for_full_cycle_schemes(
        self, dj_scheme, af_scheme, ld_scheme, query_pairs, probe_offsets
    ):
        """Full-cycle receptions are one rotated segment sequence: replay is
        exact in both tuning time and access latency, at every offset."""
        for scheme in (dj_scheme, af_scheme, ld_scheme):
            cycle = scheme.cycle
            client = scheme.client()
            source, target = query_pairs[0]
            recording = RecordingSession(cycle, 7 % cycle.total_packets)
            probe = client.query(source, target, session=recording)
            trace = recording.trace()
            for offset in probe_offsets:
                native = client.query(
                    source, target, session=ClientSession(cycle, offset)
                )
                tuning, latency = replay_one(trace, cycle, offset)
                assert tuning == native.metrics.tuning_time_packets
                assert latency == native.metrics.access_latency_packets
                assert probe.distance == native.distance

    def test_replay_tuning_and_answers_exact_for_selective_schemes(
        self, nr_scheme, eb_scheme, query_pairs, probe_offsets
    ):
        """For selective-tuning schemes, replayed tuning time and answers are
        exact; latency may differ from a native session by bounded rotation
        error (see the replay module docstring)."""
        for scheme in (nr_scheme, eb_scheme):
            cycle = scheme.cycle
            client = scheme.client()
            for source, target in query_pairs[:4]:
                recording = RecordingSession(cycle, 0)
                probe = client.query(source, target, session=recording)
                trace = recording.trace()
                for offset in probe_offsets:
                    native = client.query(
                        source, target, session=ClientSession(cycle, offset)
                    )
                    tuning, latency = replay_one(trace, cycle, offset)
                    assert tuning == native.metrics.tuning_time_packets
                    assert math.isclose(probe.distance, native.distance, rel_tol=1e-9)
                    assert latency >= tuning

    def test_replay_at_probe_offset_reproduces_probe(self, nr_scheme, query_pairs):
        cycle = nr_scheme.cycle
        client = nr_scheme.client()
        source, target = query_pairs[1]
        recording = RecordingSession(cycle, 5)
        probe = client.query(source, target, session=recording)
        assert replay_one(recording.trace(), cycle, 5) == (
            probe.metrics.tuning_time_packets,
            probe.metrics.access_latency_packets,
        )

    def test_trace_tuning_packets_matches_session(self, dj_scheme, query_pairs):
        recording = RecordingSession(dj_scheme.cycle, 3)
        dj_scheme.client().query(*query_pairs[2], session=recording)
        assert recording.trace().tuning_packets == recording.tuning_packets

    def test_lossy_traces_refuse_replay(self, nr_scheme, query_pairs):
        channel = nr_scheme.channel(loss_rate=0.2, seed=1)
        recording = RecordingSession(
            nr_scheme.cycle, 0, channel.session(0).loss_model
        )
        nr_scheme.client().query(*query_pairs[0], session=recording)
        # Even a lossy trace accounts its packets faithfully (retries included).
        assert recording.trace().tuning_packets == recording.tuning_packets
        with pytest.raises(ValueError, match="lossy"):
            replay_one(recording.trace(), nr_scheme.cycle, 10)

    def test_stale_cycle_refused(self, nr_scheme, dj_scheme, query_pairs):
        recording = RecordingSession(nr_scheme.cycle, 0)
        nr_scheme.client().query(*query_pairs[0], session=recording)
        with pytest.raises(ValueError, match="cycle"):
            replay_one(recording.trace(), dj_scheme.cycle, 0)


class TestSimulateFleet:
    def test_counters_partition_the_fleet(self, nr_scheme, medium_network):
        devices = fleet_rush_hour(medium_network, 60, seed=2, hot_pairs=6)
        lossy = fleet_uniform_trickle(medium_network, 15, seed=3, loss_rate=0.05)
        lossy = [
            DeviceSpec(
                device_id=60 + spec.device_id,
                source=spec.source,
                target=spec.target,
                tune_in_fraction=spec.tune_in_fraction,
                loss_rate=spec.loss_rate,
            )
            for spec in lossy
        ]
        run = simulate_fleet(nr_scheme, devices + lossy)
        assert run.num_devices == 75
        assert run.replays == 60
        assert run.natives == 15
        assert 1 <= run.probes <= 6
        modes = {o.spec.device_id: o.mode for o in run.outcomes}
        assert all(modes[i] == "replay" for i in range(60))
        assert all(modes[i] == "native" for i in range(60, 75))

    def test_mixed_fleet_bit_identical_across_concurrency(
        self, nr_scheme, medium_network
    ):
        devices = fleet_uniform_trickle(medium_network, 30, seed=9, loss_rate=0.0)
        devices += [
            DeviceSpec(device_id=100 + i, source=spec.source, target=spec.target,
                       loss_rate=0.08)
            for i, spec in enumerate(devices[:10])
        ]
        runs = [
            simulate_fleet(nr_scheme, devices, seed=4, concurrency=c)
            for c in (1, 2, 4)
        ]
        assert runs[0].signature() == runs[1].signature() == runs[2].signature()
        assert any(o.metrics.lost_packets > 0 for o in runs[0].outcomes)

    def test_explicit_offsets_and_fractions_are_honored(self, nr_scheme):
        total = nr_scheme.cycle.total_packets
        nodes = nr_scheme.network.node_ids()
        devices = [
            DeviceSpec(device_id=0, source=nodes[0], target=nodes[-1], tune_in_offset=5),
            DeviceSpec(
                device_id=1, source=nodes[0], target=nodes[-1], tune_in_fraction=0.5
            ),
        ]
        run = simulate_fleet(nr_scheme, devices)
        assert run.outcomes[0].tune_in_offset == 5
        assert run.outcomes[1].tune_in_offset == (total // 2) % total
        # Only one probe: both devices share the query.
        assert run.probes == 1

    def test_concurrency_below_one_rejected(self, nr_scheme):
        with pytest.raises(ValueError, match="concurrency"):
            simulate_fleet(nr_scheme, [], concurrency=0)

    def test_unknown_nodes_rejected(self, nr_scheme, medium_network):
        bad = [DeviceSpec(device_id=0, source=-1, target=-2)]
        with pytest.raises(ValueError, match="outside network"):
            simulate_fleet(nr_scheme, bad)

        # The offending device follows valid ones, its valid source already
        # appeared in an earlier pair, and a later device repeats the bad
        # node: the message still names the first offender in device order,
        # exactly as the per-device reference loop does.
        source, target = sorted(medium_network.node_ids())[:2]
        fleet = [
            DeviceSpec(device_id=10, source=source, target=target),
            DeviceSpec(device_id=11, source=source, target=target, loss_rate=0.1),
            DeviceSpec(device_id=12, source=source, target=-7),
            DeviceSpec(device_id=13, source=-7, target=target),
            DeviceSpec(device_id=14, source=-1, target=-2),
        ]
        total = nr_scheme.cycle.total_packets
        with pytest.raises(ValueError) as expected:
            oracle_partition(fleet, medium_network, total, 0)
        with pytest.raises(ValueError) as raised:
            simulate_fleet(nr_scheme, fleet)
        assert str(raised.value) == str(expected.value)
        assert str(raised.value).startswith(f"device 12: query {source}->-7 ")

    def test_empty_fleet_never_spins_up_a_pool(self, nr_scheme, monkeypatch):
        import repro.concurrency

        def forbidden(*args, **kwargs):
            raise AssertionError("thread pool created for an empty fleet")

        monkeypatch.setattr(repro.concurrency, "ThreadPoolExecutor", forbidden)
        run = simulate_fleet(nr_scheme, [], concurrency=8)
        assert run.num_devices == 0
        assert run.signature() == ()

    def test_memory_bound_devices(self, nr_scheme, medium_network):
        devices = fleet_rush_hour(medium_network, 20, seed=6, hot_pairs=4)
        bound = [
            DeviceSpec(
                device_id=spec.device_id,
                source=spec.source,
                target=spec.target,
                tune_in_fraction=spec.tune_in_fraction,
                memory_bound=True,
                true_distance=spec.true_distance,
            )
            for spec in devices
        ]
        plain_run = simulate_fleet(nr_scheme, devices)
        bound_run = simulate_fleet(nr_scheme, bound)
        assert bound_run.mismatches == 0
        assert bound_run.mean("peak_memory_bytes") < plain_run.mean("peak_memory_bytes")

    def test_memory_bound_rejected_for_full_cycle_schemes(self, dj_scheme):
        nodes = dj_scheme.network.node_ids()
        devices = [
            DeviceSpec(device_id=0, source=nodes[0], target=nodes[1], memory_bound=True)
        ]
        with pytest.raises(ValueError, match="memory-bound"):
            simulate_fleet(dj_scheme, devices)

    def test_device_spec_validation(self):
        with pytest.raises(ValueError, match="loss rate"):
            DeviceSpec(device_id=0, source=0, target=1, loss_rate=1.5)
        with pytest.raises(ValueError, match="tune_in_fraction"):
            DeviceSpec(device_id=0, source=0, target=1, tune_in_fraction=1.0)
        with pytest.raises(ValueError, match="tune_in_offset"):
            DeviceSpec(device_id=0, source=0, target=1, tune_in_offset=-3)


class TestScenarios:
    def test_scenarios_are_deterministic(self, medium_network):
        for generator in (fleet_rush_hour, fleet_uniform_trickle, fleet_hot_destination):
            first = generator(medium_network, 25, seed=11)
            second = generator(medium_network, 25, seed=11)
            other = generator(medium_network, 25, seed=12)
            assert first == second
            assert first != other
            assert [spec.device_id for spec in first] == list(range(25))

    def test_rush_hour_is_bursty_and_pooled(self, medium_network):
        devices = fleet_rush_hour(
            medium_network, 200, seed=1, hot_pairs=8, burst_center=0.4, burst_width=0.05
        )
        fractions = [spec.tune_in_fraction for spec in devices]
        assert statistics.pstdev(fractions) < 0.15
        pairs = {(spec.source, spec.target) for spec in devices}
        assert len(pairs) <= 8
        for spec in devices[:5]:
            truth = shortest_path(medium_network, spec.source, spec.target)
            assert spec.true_distance == pytest.approx(truth.distance)

    def test_hot_destination_concentrates_targets(self, medium_network):
        devices = fleet_hot_destination(
            medium_network, 120, seed=5, num_destinations=4, with_ground_truth=True
        )
        targets = {spec.target for spec in devices}
        assert len(targets) <= 4
        priced = [spec for spec in devices if spec.true_distance is not None]
        assert priced
        for spec in priced[:5]:
            truth = shortest_path(medium_network, spec.source, spec.target)
            assert spec.true_distance == pytest.approx(truth.distance)

    def test_degenerate_inputs_fail_fast(self, medium_network):
        from repro.network.graph import RoadNetwork

        lonely = RoadNetwork(name="lonely")
        lonely.add_node(0, 0.0, 0.0)
        for generator in (fleet_rush_hour, fleet_uniform_trickle, fleet_hot_destination):
            with pytest.raises(ValueError, match="at least 2 nodes"):
                generator(lonely, 3)
        with pytest.raises(ValueError, match="num_destinations"):
            fleet_hot_destination(medium_network, 5, num_destinations=0)

    def test_trickle_spreads_tune_ins(self, medium_network):
        devices = fleet_uniform_trickle(medium_network, 200, seed=8)
        fractions = sorted(spec.tune_in_fraction for spec in devices)
        assert fractions[0] < 0.1 and fractions[-1] > 0.9
        assert all(spec.true_distance is None for spec in devices)


class TestEngineFleetFacade:
    @pytest.fixture(scope="class")
    def system(self, medium_network):
        config = ExperimentConfig(
            network="germany", scale=0.01, seed=3,
            eb_nr_regions=8, arcflag_regions=8, hiti_regions=8, num_landmarks=2,
        )
        return AirSystem(medium_network, config=config)

    def test_simulate_fleet_reuses_the_cached_cycle(self, system, medium_network):
        system.clear_cache()
        devices = fleet_rush_hour(medium_network, 30, seed=4, hot_pairs=5)
        first = system.simulate_fleet("NR", devices)
        second = system.simulate_fleet("NR", devices)
        assert first.signature() == second.signature()
        info = system.cache_info()
        assert info.misses == 1
        assert info.hits >= 1

    def test_simulate_fleet_passes_scheme_params(self, system, medium_network):
        devices = fleet_rush_hour(medium_network, 10, seed=4, hot_pairs=3)
        run = system.simulate_fleet("NR", devices, num_regions=4)
        assert run.mismatches == 0
        assert system.scheme("NR", num_regions=4).num_regions == 4

    def test_simulate_fleet_concurrency_validated(self, system, medium_network):
        with pytest.raises(ValueError, match="concurrency"):
            system.simulate_fleet("NR", [], concurrency=0)
