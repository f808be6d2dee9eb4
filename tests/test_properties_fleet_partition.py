"""Property suite: the columnar fleet partition equals the per-device loop.

:func:`repro.fleet.simulator.partition_fleet` resolves a whole fleet in
array passes; :func:`oracles.fleet.partition_fleet` is the device-order loop
it replaced.  Over hypothesis-generated mixed fleets -- explicit offsets
(some past the cycle length, some past 2**63), cycle fractions, RNG-drawn
tune-ins, lossy devices with and without a seed, memory-bound NR devices,
missing and disagreeing ground truths, and repeated query pairs -- both
must agree on every offset, loss seed, replay group and probe, and
:func:`repro.fleet.simulate_fleet` must produce the oracle's signature.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.fleet import fleet_signature, partition_fleet as oracle_partition
from repro import air
from repro.air.base import is_mismatch
from repro.broadcast.metrics import ClientMetrics
from repro.fleet import DeviceSpec, FleetRun, simulate_fleet
from repro.fleet.simulator import partition_fleet
from repro.network.algorithms.dijkstra import shortest_path

from test_properties_fleet import SMALL_PARAMS, random_network

NETWORK = random_network(11)
SCHEME = air.create("NR", NETWORK, **SMALL_PARAMS["NR"])
TOTAL = SCHEME.cycle.total_packets
NODES = sorted(NETWORK.node_ids())

tune_ins = st.one_of(
    st.just({}),
    st.fixed_dictionaries(
        {
            "tune_in_offset": st.one_of(
                st.integers(0, TOTAL - 1),
                st.integers(TOTAL, 50 * TOTAL),
                st.integers(2**63, 2**80),
            )
        }
    ),
    st.fixed_dictionaries(
        {"tune_in_fraction": st.floats(0.0, 1.0, exclude_max=True)}
    ),
    st.fixed_dictionaries(
        {
            "tune_in_offset": st.integers(0, 3 * TOTAL),
            "tune_in_fraction": st.floats(0.0, 1.0, exclude_max=True),
        }
    ),
)
losses = st.one_of(
    st.just({}),
    st.just({"loss_rate": 0.1}),
    st.fixed_dictionaries(
        {"loss_rate": st.just(0.1), "loss_seed": st.integers(0, 2**40)}
    ),
    # A seed on a lossless device is carried but never used.
    st.fixed_dictionaries({"loss_seed": st.integers(0, 99)}),
)


@st.composite
def mixed_fleets(draw):
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)),
            min_size=1,
            max_size=4,
        )
    )
    devices = []
    for device_id in range(draw(st.integers(1, 20))):
        source, target = draw(st.sampled_from(pairs))
        truth = shortest_path(NETWORK, source, target).distance
        devices.append(
            DeviceSpec(
                device_id=device_id,
                source=source,
                target=target,
                memory_bound=draw(st.booleans()),
                true_distance=draw(st.sampled_from([None, truth, truth + 1.0])),
                **draw(tune_ins),
                **draw(losses),
            )
        )
    return devices


def plain(partition):
    """The production partition in the oracle's plain-value form."""
    return (
        tuple(partition.offsets.tolist()),
        tuple((key, tuple(indices.tolist())) for key, indices in partition.groups),
        partition.native_indices,
        partition.native_loss_seeds,
        partition.memory_modes,
    )


@given(mixed_fleets(), st.integers(0, 2**20))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_columnar_partition_equals_per_device_loop(devices, seed):
    want = oracle_partition(devices, NETWORK, TOTAL, seed)
    got = partition_fleet(devices, NETWORK, TOTAL, seed)
    assert plain(got) == (
        want.offsets,
        want.groups,
        want.native_indices,
        want.native_loss_seeds,
        want.memory_modes,
    )
    # Every group's probe is the first device of its key, in device order.
    for (source, target, memory_bound), indices in got.groups:
        first = devices[int(indices[0])]
        assert (first.source, first.target, first.memory_bound) == (
            source,
            target,
            memory_bound,
        )
        assert all(type(value) is int for value in (source, target))

    run = simulate_fleet(SCHEME, devices, seed=seed)
    assert run.signature() == fleet_signature(SCHEME, devices, seed)
    assert run.probes == len(want.groups)
    assert run.natives == len(want.native_indices)
    assert [outcome.tune_in_offset for outcome in run.outcomes] == list(want.offsets)


def test_empty_fleet_partitions_to_nothing():
    got = partition_fleet([], NETWORK, TOTAL, 0)
    assert plain(got) == ((), (), (), (), ())


def test_mismatch_column_follows_is_mismatch_rule():
    """Unknown truths never count; NaN-free disagreements do."""
    source, target = NODES[0], NODES[-1]
    truth = shortest_path(NETWORK, source, target).distance
    devices = [
        DeviceSpec(device_id=0, source=source, target=target, true_distance=None),
        DeviceSpec(device_id=1, source=source, target=target, true_distance=truth),
        DeviceSpec(device_id=2, source=source, target=target, true_distance=truth * 2),
        DeviceSpec(
            device_id=3, source=source, target=target, true_distance=math.inf
        ),
    ]
    run = simulate_fleet(SCHEME, devices)
    assert [outcome.mismatch for outcome in run.outcomes] == [False, False, True, False]
    assert run.signature() == fleet_signature(SCHEME, devices, 0)


def test_record_mismatches_equals_is_mismatch():
    """The column-at-once rule agrees with the scalar rule case by case,
    including sub-unit truths (where the ``max(1, truth)`` floor decides),
    infinite answers and truths, and missing truths."""
    distances = (0.0, 0.5, 0.5 + 8e-7, 1.0, 1e6, math.inf)
    truths = (None, 0.0, 0.5, 1.0, 1e6 + 0.5, 1e6 * (1 + 2e-6), math.inf)
    cases = [(distance, truth) for distance in distances for truth in truths]
    run = FleetRun(scheme="NR")
    run.allocate(
        [
            DeviceSpec(device_id=index, source=0, target=1, true_distance=truth)
            for index, (_, truth) in enumerate(cases)
        ]
    )
    for index, (distance, _) in enumerate(cases):
        run.record_device(
            index=index,
            offset=0,
            distance=distance,
            found=True,
            replay=False,
            metrics=ClientMetrics(tuning_time_packets=1, access_latency_packets=1),
            extra_id=-1,
        )
    run.record_mismatches(
        np.array([truth for _, truth in cases], dtype=np.float64)
    )
    assert [outcome.mismatch for outcome in run.outcomes] == [
        is_mismatch(distance, truth) for distance, truth in cases
    ]
