"""Property suite: the bulk replay kernel is bit-identical to scalar replay.

:func:`repro.broadcast.replay_bulk.replay_trace_bulk` promises to produce,
for every device position, exactly the tuning time and access latency the
per-device oracle :func:`oracles.replay.replay_trace` would.  These
properties check that promise where it matters:

* real traces from all seven registered schemes over random networks,
  replayed at every position of the broadcast cycle (small cycles) or a
  dense random sample (larger ones), including the position-anchored head
  positions right at and around each op's recorded anchor;
* synthetic corner traces -- no segment ops at all (a pure head), a single
  segment op, and segment anchors shared between ops (the rotation
  tie-break);
* whole-fleet equivalence: every replayed device of a
  :func:`repro.fleet.simulate_fleet` run equals the oracle replay of its
  group's probe trace, and the vectorized aggregates equal their scalar
  definitions over the materialized outcomes;
* offset dedup: unsorted, repeated and whole-cycle-shifted starts in one
  call each get their own oracle latency, and no starts give an empty
  ``int64`` array;
* error parity: the bulk kernel rejects lossy traces and stale cycles with
  the same messages as the oracle.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from oracles.replay import replay_trace
from repro import air
from repro.air import ClientOptions
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.device import CHANNEL_2MBPS, J2ME_CLAMSHELL
from repro.broadcast.packet import Segment, SegmentKind
from repro.broadcast.replay import OpKind, RecordingSession, SessionTrace, TraceOp
from repro.broadcast.replay_bulk import (
    CycleLayout,
    TraceTable,
    replay_trace_bulk,
)
from repro.experiments import fleet_uniform_trickle
from repro.fleet import simulate_fleet
from repro.stats import percentile

from test_properties_fleet import SMALL_PARAMS, random_network

SEEDS = [5, 23]


def sample_positions(total: int, rng: random.Random, dense_limit: int = 600):
    """Every cycle position when feasible, else a dense random sample."""
    if total <= dense_limit:
        return list(range(total))
    picks = {0, 1, total - 1}
    picks.update(rng.randrange(total) for _ in range(120))
    return sorted(picks)


def assert_bulk_matches_scalar(trace, cycle, positions):
    layout = cycle.compiled_layout()
    table = TraceTable.compile(trace, layout)
    bulk = replay_trace_bulk(table, layout, np.asarray(positions, dtype=np.int64))
    for slot, position in enumerate(positions):
        scalar = replay_trace(trace, cycle, position)
        assert bulk.tuning_packets == scalar.tuning_packets, (
            f"tuning diverged at position {position}"
        )
        assert int(bulk.access_latency_packets[slot]) == scalar.access_latency_packets, (
            f"latency diverged at position {position}: "
            f"bulk={int(bulk.access_latency_packets[slot])} scalar={scalar.access_latency_packets}"
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme_name", sorted(SMALL_PARAMS))
def test_bulk_replay_matches_scalar_on_real_traces(scheme_name, seed):
    """All seven schemes, every tune-in position of each recorded trace."""
    rng = random.Random(seed * 7 + 1)
    network = random_network(seed)
    scheme = air.create(scheme_name, network, **SMALL_PARAMS[scheme_name])
    cycle = scheme.cycle
    client = scheme.client()
    node_ids = sorted(network.node_ids())
    for _ in range(3):
        source, target = rng.choice(node_ids), rng.choice(node_ids)
        session = RecordingSession(cycle, rng.randrange(cycle.total_packets))
        client.query(source, target, session=session)
        trace = session.trace()
        positions = sample_positions(cycle.total_packets, rng)
        # Anchor-adjacent positions exercise the rotation boundary exactly.
        for op in trace.ops:
            positions.extend(
                p % cycle.total_packets for p in (op.anchor - 1, op.anchor, op.anchor + 1)
            )
        assert_bulk_matches_scalar(trace, cycle, sorted(set(positions)))


def synthetic_cycle():
    return BroadcastCycle(
        [
            Segment(name="index", kind=SegmentKind.INDEX, size_bytes=600),
            Segment(name="data-a", kind=SegmentKind.NETWORK_DATA, size_bytes=1000),
            Segment(name="data-b", kind=SegmentKind.NETWORK_DATA, size_bytes=400),
        ],
        name="synthetic",
    )


def test_bulk_replay_on_trace_without_segment_ops():
    """A pure position-anchored head: no body, no rotation at all."""
    cycle = synthetic_cycle()
    total = cycle.total_packets
    trace = SessionTrace(
        ops=(
            TraceOp(OpKind.ONE_PACKET, anchor=3),
            TraceOp(OpKind.ONE_PACKET, anchor=4),
            TraceOp(OpKind.ONE_PACKET, anchor=5),
        ),
        cycle_packets=total,
    )
    assert_bulk_matches_scalar(trace, cycle, list(range(total)))


def test_bulk_replay_on_head_plus_rotating_body():
    """Head reads followed by a rotated multi-segment body, shared anchors.

    Two body ops share ``data-a``'s anchor, so the rotation tie-break (the
    earliest recorded op wins) is observable at the positions where that
    anchor is the next one on the air.
    """
    cycle = synthetic_cycle()
    total = cycle.total_packets
    start_a = cycle.segment_start("data-a")
    start_b = cycle.segment_start("data-b")
    packets_a = cycle.segment("data-a").num_packets
    trace = SessionTrace(
        ops=(
            TraceOp(OpKind.ONE_PACKET, anchor=0),
            TraceOp(
                OpKind.SEGMENT,
                name="data-a",
                packet_count=2,
                last_offset=1,
                anchor=start_a,
            ),
            TraceOp(OpKind.ONE_PACKET, anchor=(start_a + 2) % total),
            TraceOp(
                OpKind.SEGMENT,
                name="data-a",
                packet_count=1,
                last_offset=packets_a - 1,
                anchor=start_a,
            ),
            TraceOp(
                OpKind.SEGMENT,
                name="data-b",
                packet_count=1,
                last_offset=0,
                anchor=start_b,
            ),
        ),
        cycle_packets=total,
    )
    assert_bulk_matches_scalar(trace, cycle, list(range(total)))


def test_bulk_replay_on_single_segment_trace():
    cycle = synthetic_cycle()
    total = cycle.total_packets
    trace = SessionTrace(
        ops=(
            TraceOp(
                OpKind.SEGMENT,
                name="index",
                packet_count=1,
                last_offset=0,
                anchor=cycle.segment_start("index"),
            ),
        ),
        cycle_packets=total,
    )
    assert_bulk_matches_scalar(trace, cycle, list(range(total)))


def test_bulk_replay_accepts_positions_beyond_one_cycle():
    """Global (multi-cycle) start positions behave like the scalar path."""
    cycle = synthetic_cycle()
    total = cycle.total_packets
    trace = SessionTrace(
        ops=(
            TraceOp(OpKind.ONE_PACKET, anchor=0),
            TraceOp(
                OpKind.SEGMENT,
                name="data-b",
                packet_count=1,
                last_offset=0,
                anchor=cycle.segment_start("data-b"),
            ),
        ),
        cycle_packets=total,
    )
    positions = [0, 1, total - 1, total, total + 5, 7 * total + 3]
    assert_bulk_matches_scalar(trace, cycle, positions)


@pytest.mark.parametrize("scheme_name", sorted(SMALL_PARAMS))
def test_bulk_replay_dedups_offsets_without_reordering(scheme_name):
    """Unsorted, repeated and whole-cycle-shifted starts in one call.

    The kernel walks each distinct cycle offset once and scatters the
    result back, so every start -- duplicates and starts whole cycles
    apart included -- must still get its own oracle latency, in input order.
    """
    rng = random.Random(41)
    network = random_network(SEEDS[1])
    scheme = air.create(scheme_name, network, **SMALL_PARAMS[scheme_name])
    cycle = scheme.cycle
    total = cycle.total_packets
    node_ids = sorted(network.node_ids())
    session = RecordingSession(cycle, rng.randrange(total))
    scheme.client().query(rng.choice(node_ids), rng.choice(node_ids), session=session)
    trace = session.trace()
    base = [rng.randrange(total) for _ in range(40)]
    positions = base + [rng.choice(base) for _ in range(40)]
    positions += [p + rng.randrange(1, 6) * total for p in base[:20]]
    rng.shuffle(positions)
    assert len(set(p % total for p in positions)) < len(positions)
    assert_bulk_matches_scalar(trace, cycle, positions)


def test_bulk_replay_of_no_positions_is_empty_int64():
    cycle = synthetic_cycle()
    trace = SessionTrace(
        ops=(
            TraceOp(OpKind.ONE_PACKET, anchor=0),
            TraceOp(
                OpKind.SEGMENT,
                name="data-a",
                packet_count=1,
                last_offset=0,
                anchor=cycle.segment_start("data-a"),
            ),
        ),
        cycle_packets=cycle.total_packets,
    )
    layout = cycle.compiled_layout()
    table = TraceTable.compile(trace, layout)
    for empty in ([], np.zeros(0, dtype=np.int64)):
        bulk = replay_trace_bulk(table, layout, empty)
        assert bulk.tuning_packets == trace.tuning_packets
        assert bulk.access_latency_packets.dtype == np.int64
        assert bulk.access_latency_packets.shape == (0,)


def test_bulk_replay_rejects_lossy_traces_like_scalar():
    cycle = synthetic_cycle()
    trace = SessionTrace(
        ops=(TraceOp(OpKind.ONE_PACKET, anchor=0),),
        cycle_packets=cycle.total_packets,
        loss_rate=0.25,
    )
    layout = cycle.compiled_layout()
    table = TraceTable.compile(trace, layout)
    with pytest.raises(ValueError, match="lossy"):
        replay_trace(trace, cycle, 0)
    with pytest.raises(ValueError, match="lossy"):
        replay_trace_bulk(table, layout, np.zeros(1, dtype=np.int64))


def test_trace_table_rejects_stale_cycles_like_scalar():
    cycle = synthetic_cycle()
    other = BroadcastCycle(
        [Segment(name="index", kind=SegmentKind.INDEX, size_bytes=120)],
        name="other",
    )
    trace = SessionTrace(
        ops=(TraceOp(OpKind.ONE_PACKET, anchor=0),),
        cycle_packets=cycle.total_packets,
    )
    with pytest.raises(ValueError, match="cycle"):
        replay_trace(trace, other, 0)
    with pytest.raises(ValueError, match="packet"):
        TraceTable.compile(trace, other.compiled_layout())


def test_cycle_layout_vectorizes_next_segment_named():
    """``CycleLayout.next_starts`` equals ``cycle.next_segment_named``."""
    cycle = synthetic_cycle()
    layout = cycle.compiled_layout()
    total = cycle.total_packets
    positions = np.arange(0, 3 * total, dtype=np.int64)
    for name in ("index", "data-a", "data-b"):
        starts = layout.next_starts(layout.index_of[name], positions.copy())
        for position, start in zip(positions.tolist(), starts.tolist()):
            assert start == cycle.next_segment_named(name, position)


@pytest.mark.parametrize("scheme_name", sorted(SMALL_PARAMS))
def test_fleet_run_identical_with_bulk_kernel_on_and_off(scheme_name):
    """Whole-fleet equivalence between the bulk kernel and per-device replay.

    "On" is :func:`simulate_fleet`; "off" is the oracle: each lossless
    device's key is probed once (at its first device, in device order, as
    the simulator does) and every device of the key is replayed one at a
    time through :func:`oracles.replay.replay_trace`.
    """
    seed = SEEDS[0]
    network = random_network(seed)
    scheme = air.create(scheme_name, network, **SMALL_PARAMS[scheme_name])
    cycle = scheme.cycle
    # A couple of lossy devices keep the native path in the mix too.
    devices = fleet_uniform_trickle(network, 14, seed=seed + 2, with_ground_truth=True)
    lossy = fleet_uniform_trickle(network, 2, seed=seed + 3, loss_rate=0.05)
    base_id = len(devices)
    for index, spec in enumerate(lossy):
        devices.append(dataclasses.replace(spec, device_id=base_id + index))

    run = simulate_fleet(scheme, devices, seed=seed)

    probes = {}
    replayed_devices = 0
    for outcome in run.outcomes:
        spec = outcome.spec
        if spec.loss_rate:
            assert outcome.mode == "native"
            continue
        assert outcome.mode == "replay"
        key = (spec.source, spec.target, spec.memory_bound)
        if key not in probes:
            session = RecordingSession(cycle, outcome.tune_in_offset)
            client = scheme.client(options=ClientOptions(memory_bound=spec.memory_bound))
            result = client.query(spec.source, spec.target, session=session)
            probes[key] = (session.trace(), result)
        trace, probe = probes[key]
        want = replay_trace(trace, cycle, outcome.tune_in_offset)
        replayed_devices += 1
        assert outcome.metrics.tuning_time_packets == want.tuning_packets
        assert outcome.metrics.access_latency_packets == want.access_latency_packets
        assert outcome.metrics.peak_memory_bytes == probe.metrics.peak_memory_bytes
        assert outcome.metrics.lost_packets == 0
        assert outcome.metrics.extra == probe.metrics.extra
        assert outcome.distance == probe.distance
        assert outcome.found == probe.found
    assert run.probes == len(probes)
    assert run.replays == replayed_devices
    assert run.natives == len(lossy)
    assert run.mismatches == sum(o.mismatch for o in run.outcomes)

    # The vectorized aggregates equal their scalar definitions.
    for metric in ("access_latency_packets", "tuning_time_packets", "peak_memory_bytes"):
        values = [float(getattr(o.metrics, metric)) for o in run.outcomes]
        for quantile in (0, 25, 50, 90, 99, 100):
            assert run.percentile(metric, quantile) == percentile(values, quantile)
        assert run.mean(metric) == pytest.approx(sum(values) / len(values))
    assert run.mean_energy_joules() == pytest.approx(
        sum(o.metrics.energy_joules(J2ME_CLAMSHELL, CHANNEL_2MBPS) for o in run.outcomes)
        / run.num_devices
    )


def test_cycle_layout_exposes_segment_anchors():
    cycle = synthetic_cycle()
    layout = cycle.compiled_layout()
    for name in ("index", "data-a", "data-b"):
        anchors = layout.segment_anchors(name)
        assert anchors.tolist() == [cycle.segment_start(name)]


class TestColumnarFleetRun:
    """Edge cases of the columnar FleetRun storage and aggregates."""

    def run_with_devices(self):
        seed = SEEDS[0]
        network = random_network(seed)
        scheme = air.create("DJ", network)
        devices = fleet_uniform_trickle(network, 8, seed=seed, with_ground_truth=True)
        return simulate_fleet(scheme, devices, seed=seed)

    def test_empty_run_aggregates(self):
        from repro.fleet.results import FleetRun

        run = FleetRun(scheme="DJ")
        assert run.outcomes == []
        assert run.signature() == ()
        assert run.mismatches == 0
        assert run.num_devices == 0
        assert run.percentile("access_latency_packets", 50) == 0.0
        assert run.mean("tuning_time_packets") == 0.0
        assert run.mean_energy_joules() == 0.0
        assert run.devices_per_second == float("inf")

    def test_unknown_metric_raises(self):
        run = self.run_with_devices()
        with pytest.raises(AttributeError, match="unknown ClientMetrics field"):
            run.percentile("no_such_metric", 50)
        with pytest.raises(AttributeError, match="unknown ClientMetrics field"):
            run.mean("no_such_metric")

    def test_percentile_range_validated(self):
        run = self.run_with_devices()
        with pytest.raises(ValueError, match="percentile"):
            run.percentile("access_latency_packets", 101)
        with pytest.raises(ValueError, match="percentile"):
            run.percentile("access_latency_packets", -1)

    def test_vectorized_percentile_selects_nearest_rank_element(self):
        run = self.run_with_devices()
        values = [float(o.metrics.access_latency_packets) for o in run.outcomes]
        for q in (0, 1, 10, 33, 50, 66.6, 90, 99, 100):
            assert run.percentile("access_latency_packets", q) == percentile(values, q)

    def test_unrecorded_slot_materializes_empty_extra(self):
        from repro.fleet.results import FleetRun

        run = self.run_with_devices()
        spec = run.outcomes[0].spec
        bare = FleetRun(scheme="DJ")
        bare.allocate([spec])
        assert bare.outcomes[0].metrics.extra == {}

    def test_vectorized_energy_and_percentile_views(self):
        run = self.run_with_devices()
        manual = sum(
            o.metrics.energy_joules(J2ME_CLAMSHELL, CHANNEL_2MBPS)
            for o in run.outcomes
        ) / run.num_devices
        assert run.mean_energy_joules() == pytest.approx(manual)
        assert run.latency_percentiles() == {
            q: run.percentile("access_latency_packets", q) for q in (50, 90, 99)
        }
        assert run.tuning_percentiles() == {
            q: run.percentile("tuning_time_packets", q) for q in (50, 90, 99)
        }
        assert 0 < run.devices_per_second < float("inf")
        assert f"devices={run.num_devices}" in repr(run)

    def test_allocated_but_empty_columns_aggregate_to_zero(self):
        from repro.fleet.results import FleetRun

        run = FleetRun(scheme="DJ")
        run.allocate([])
        assert run.percentile("access_latency_packets", 90) == 0.0
        assert run.mean("access_latency_packets") == 0.0
        assert run.mean_energy_joules() == 0.0
        assert run.outcomes == []

    def test_outcomes_are_cached_and_in_device_order(self):
        run = self.run_with_devices()
        first = run.outcomes
        assert run.outcomes is first
        assert [o.spec.device_id for o in first] == sorted(
            o.spec.device_id for o in first
        )


def test_mixed_ground_truths_in_one_replay_group_flag_per_device():
    """Devices sharing a query but not a ground truth get per-device flags."""
    seed = SEEDS[0]
    network = random_network(seed)
    scheme = air.create("DJ", network)
    base = fleet_uniform_trickle(network, 1, seed=seed, with_ground_truth=True)[0]
    devices = [
        dataclasses.replace(base, device_id=0, tune_in_fraction=0.1),
        # Same query, deliberately wrong truth: must flag as a mismatch.
        dataclasses.replace(
            base,
            device_id=1,
            tune_in_fraction=0.6,
            true_distance=base.true_distance + 1_000.0,
        ),
        # Same query, no truth recorded: never a mismatch.
        dataclasses.replace(
            base, device_id=2, tune_in_fraction=0.9, true_distance=None
        ),
    ]
    run = simulate_fleet(scheme, devices, seed=seed)
    assert run.probes == 1 and run.replays == 3
    assert [o.mismatch for o in run.outcomes] == [False, True, False]
    assert run.mismatches == 1


def test_explicit_offsets_reach_bulk_kernel_unchanged():
    """Spec-pinned offsets land in the outcome exactly (mod cycle length)."""
    seed = SEEDS[1]
    network = random_network(seed)
    scheme = air.create("NR", network, **SMALL_PARAMS["NR"])
    total = scheme.cycle.total_packets
    base = fleet_uniform_trickle(network, 2, seed=seed, with_ground_truth=True)
    pinned = [
        dataclasses.replace(base[0], tune_in_offset=11, tune_in_fraction=None),
        dataclasses.replace(base[1], tune_in_offset=total + 4, tune_in_fraction=None),
    ]
    run = simulate_fleet(scheme, pinned, seed=seed)
    assert run.outcomes[0].tune_in_offset == 11 % total
    assert run.outcomes[1].tune_in_offset == (total + 4) % total
