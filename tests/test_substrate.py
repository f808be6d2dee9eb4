"""One region substrate per system (:mod:`repro.air.substrate`).

Within one :class:`AirSystem`, NR, EB, AF and HiTi with the same region
count hold one kd partitioning, and NR and EB one border-path block --
after a build, a warm start from a store, a worker's segment load and a
refresh alike, where a batch is repaired once for both.  Different region
counts and standalone builds share nothing, and every scheme's artifact
and cycle equal a standalone build's.
"""

from __future__ import annotations

import random
import sys
import threading
from types import SimpleNamespace

import pytest

from repro import air
from repro.air.base import AirIndexScheme
from repro.air.border_paths import BorderPathPrecomputation
from repro.air.substrate import Substrate
from repro.engine import AirSystem
from repro.faults import FaultPlan, FaultSpec
from repro.faults import runtime as fault_runtime
from repro.faults.runtime import FaultInjected
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.serialize.codec import decode_value
from repro.serving.shm import SharedArtifactSegment
from repro.serving.worker import WorkerRuntime
from repro.store import ArtifactStore

from test_properties_dynamic import random_update_batch
from test_refresh import _zero_timing

REGIONS = 4
REGION_SCHEMES = ("NR", "EB", "AF", "HiTi")
#: LD rides along: its dense state round-trips through the store and a
#: segment with the region schemes.
SCHEMES = REGION_SCHEMES + ("LD",)
CONFIG = SimpleNamespace(
    eb_nr_regions=REGIONS, arcflag_regions=REGIONS, hiti_regions=REGIONS, num_landmarks=2
)


def _network(seed: int = 3):
    network = generate_road_network(
        GeneratorConfig(num_nodes=80, num_edges=180, seed=seed), name="substrate"
    )
    network.clear_delta()
    return network


def _built(network) -> AirSystem:
    system = AirSystem(network, config=CONFIG)
    for name in SCHEMES:
        system.scheme(name)
    return system


def _assert_shared(system: AirSystem):
    nr, eb, af, hiti = (system.scheme(name) for name in REGION_SCHEMES)
    assert nr.partitioning is eb.partitioning is af.partitioning is hiti.partitioning
    assert nr.precomputation is eb.precomputation
    return nr, eb


def _payload(artifact):
    return _zero_timing(decode_value(artifact.payload))


def _assert_like_standalone(system: AirSystem, serving: bool = False) -> None:
    """Every scheme's artifact (timing zeroed; the serving form for a
    worker's restores) and cycle equal a standalone build's."""
    for name in SCHEMES:
        scheme = system.scheme(name)
        standalone = air.create(name, system.network, **air.params_from_config(name, CONFIG))
        want, got = standalone.artifact(), scheme.artifact()
        if serving:
            want = AirIndexScheme.serving_artifact(want)
        assert _payload(got) == _payload(want), name
        assert scheme.cycle.signature() == standalone.cycle.signature(), name


def test_built_schemes_share_one_substrate():
    system = _built(_network())
    nr, eb = _assert_shared(system)
    # Table 3 reads each scheme's pre-computation: EB's is the shared
    # block's build time, as NR's is.
    assert eb.precomputation_seconds == nr.precomputation_seconds > 0.0
    assert eb.precomputation_seconds == eb.precomputation.precomputation_seconds
    assert eb.server_metrics().precomputation_seconds > 0.0
    _assert_like_standalone(system)


def test_warm_start_restores_one_substrate(tmp_path):
    built = _built(_network())
    store = ArtifactStore(tmp_path)
    for name in SCHEMES:
        store.put(built.artifact(name))
    system = AirSystem(_network(), config=CONFIG, store=store)
    assert system.warm_start(SCHEMES).loaded == SCHEMES
    _assert_shared(system)
    assert system.cache_info().misses == 0
    _assert_like_standalone(system)
    # A cache miss served from the store joins the same substrate.
    missed = AirSystem(_network(), config=CONFIG, store=store)
    for name in SCHEMES:
        missed.scheme(name)
    assert missed.cache_info().disk_restores == len(SCHEMES)
    _assert_shared(missed)


def test_worker_restores_one_substrate():
    built = _built(_network())
    segment = SharedArtifactSegment.publish(
        built.network, {name: built.artifact(name) for name in SCHEMES}
    )
    runtime = WorkerRuntime(0, config=CONFIG)
    try:
        runtime.load_segment(segment.name)
        _assert_shared(runtime.system)
        assert runtime.system.cache_info().misses == 0
        _assert_like_standalone(runtime.system, serving=True)
    finally:
        runtime.shutdown()
        segment.unlink()
        segment.close()


@pytest.mark.parametrize("mode", ["refresh", "refresh_async"])
def test_refresh_repairs_the_shared_block_once(mode, monkeypatch):
    system = _built(_network())
    repairs = []
    repair = BorderPathPrecomputation.refresh

    def spy(self, changes):
        repairs.append(self)
        return repair(self, changes)

    monkeypatch.setattr(BorderPathPrecomputation, "refresh", spy)
    rng = random.Random(1)
    for batch in range(1, 3):
        before, _ = _assert_shared(system)
        system.network.apply_updates(random_update_batch(system.network, rng, size=4))
        if mode == "refresh":
            report = system.refresh()
        else:
            report = system.refresh_async().wait(timeout=60)
        assert sorted(report.incremental) == ["EB", "HiTi", "NR"]
        assert sorted(report.rebuilt) == ["AF", "LD"]
        nr, _ = _assert_shared(system)
        assert len(repairs) == batch and repairs[-1] is nr.precomputation
        assert nr.precomputation is not before.precomputation
        # Partitionings stay keyed under the parent and current versions
        # only, however many batches a long-running system refreshes.
        versions = {key[1] for key in system._substrate._shared.keys() if key[0] == "partitioning"}
        assert versions == {report.parent_fingerprint, report.fingerprint}
        _assert_like_standalone(system)


def test_failed_refresh_keeps_the_pre_batch_shared_block():
    system = _built(_network())
    nr, eb = _assert_shared(system)
    block = nr.precomputation
    state = block.state()
    entries = dict(system._schemes)
    system.network.apply_updates(random_update_batch(system.network, random.Random(2)))
    fault_runtime.install(FaultPlan([FaultSpec("engine.refresh.fail", times=1)], seed=0))
    try:
        with pytest.raises(FaultInjected):
            system.refresh()
    finally:
        fault_runtime.clear()
    assert system._schemes == entries
    assert nr.precomputation is eb.precomputation is block
    assert block.state() == state
    system.refresh()
    refreshed, _ = _assert_shared(system)
    assert refreshed.precomputation is not block and block.state() == state


def test_region_counts_and_standalone_builds_share_nothing():
    network = _network()
    system = AirSystem(network)
    nr4 = system.scheme("NR", num_regions=4)
    eb8 = system.scheme("EB", num_regions=8)
    nr8 = system.scheme("NR", num_regions=8)
    af4 = system.scheme("AF", num_regions=4)
    assert nr4.partitioning is not eb8.partitioning
    assert nr4.precomputation is not eb8.precomputation
    assert nr8.partitioning is eb8.partitioning and nr8.precomputation is eb8.precomputation
    assert af4.partitioning is nr4.partitioning
    # Outside a system every build is its own, also next to one.
    first = air.create("NR", network, num_regions=4)
    second = air.create("EB", network, num_regions=4)
    assert first.partitioning is not second.partitioning
    assert first.precomputation is not second.precomputation
    assert first.partitioning is not nr4.partitioning
    assert first.precomputation is not nr4.precomputation
    # Two systems over one network share nothing either.
    other = AirSystem(network).scheme("NR", num_regions=4)
    assert other.precomputation is not nr4.precomputation


def test_racing_builds_in_one_scope_share_the_first_kept():
    """Threads building one key at once all get the same structure."""
    network = _network()
    network.ensure_csr()
    substrate = Substrate()
    built = []

    def build():
        with substrate:
            built.append(air.create("AF", network, num_regions=REGIONS).partitioning)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 8 and all(partitioning is built[0] for partitioning in built)
