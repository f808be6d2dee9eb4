"""The engine's one refresh path: replacements, atomic swap, failures.

Every refresh -- blocking :meth:`AirSystem.refresh` and the background
:meth:`AirSystem.refresh_async` alike -- builds a replacement for each
cached scheme (``shadow_rebuild``, or a scratch build when that declines)
and swaps all of them in at once.  These tests pin down:

* each replacement equals a scratch build over the mutated network (cycle
  signature and artifact payload with timing fields zeroed), and the scheme
  it replaced keeps its artifact bytes;
* AF and LD decline before copying or encoding anything;
* a refresh that fails leaves the cache, the pending delta, the clean
  fingerprint and the lineage exactly as they were;
* the cache cannot be pruned or cleared under an in-flight refresh.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import air
from repro.air import base as air_base
from repro.air.nr import NextRegionScheme
from repro.engine import AirSystem
from repro.faults import FaultPlan, FaultSpec
from repro.faults import runtime as fault_runtime
from repro.faults.runtime import FaultInjected
from repro.serialize.codec import decode_value

from test_properties_dynamic import random_update_batch
from test_properties_fleet import SMALL_PARAMS, random_network

#: Schemes whose ``shadow_rebuild`` builds a replacement from a weight delta.
DELTA_SCHEMES = ("DJ", "HiTi", "NR", "EB")
#: Schemes that decline and are rebuilt from scratch.
SCRATCH_SCHEMES = ("AF", "LD")
TIMING_KEYS = ("seconds", "precomputation_seconds")


def _zero_timing(value):
    if isinstance(value, dict):
        return {
            key: 0.0 if key in TIMING_KEYS else _zero_timing(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_zero_timing(item) for item in value]
    return value


def _payload(scheme):
    """The scheme's artifact payload, timing fields zeroed."""
    return _zero_timing(decode_value(scheme.artifact().payload))


def _run_refresh(system: AirSystem, mode: str):
    if mode == "refresh":
        return system.refresh()
    return system.refresh_async().wait(timeout=60)


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("mode", ["refresh", "refresh_async"])
@pytest.mark.parametrize("name", DELTA_SCHEMES + SCRATCH_SCHEMES)
def test_replacement_equals_scratch_and_leaves_the_replaced_scheme(name, mode, seed):
    network = random_network(seed)
    network.clear_delta()
    params = SMALL_PARAMS[name]
    system = AirSystem(network)
    rng = random.Random(seed)
    for _ in range(3):
        replaced = system.scheme(name, **params)
        replaced_bytes = replaced.artifact().payload
        replaced_signature = replaced.cycle.signature()

        network.apply_updates(random_update_batch(network, rng))
        report = _run_refresh(system, mode)
        if name in DELTA_SCHEMES:
            assert report.incremental == (name,) and report.rebuilt == ()
        else:
            assert report.rebuilt == (name,) and report.incremental == ()

        replacement = system.scheme(name, **params)
        assert replacement is not replaced
        scratch = air.create(name, network, **params)
        assert replacement.cycle.signature() == scratch.cycle.signature()
        assert _payload(replacement) == _payload(scratch)
        assert replaced.artifact().payload == replaced_bytes
        assert replaced.cycle.signature() == replaced_signature


@pytest.mark.parametrize("name", SCRATCH_SCHEMES)
def test_af_and_ld_decline_without_encoding(name, monkeypatch):
    network = random_network(5)
    network.clear_delta()
    scheme = air.create(name, network, **SMALL_PARAMS[name])
    scheme.cycle

    def forbidden(*args, **kwargs):
        raise AssertionError("shadow_rebuild must decline before encoding")

    monkeypatch.setattr(type(scheme), "artifact", forbidden)
    monkeypatch.setattr(type(scheme), "_artifact_state", forbidden)
    monkeypatch.setattr(air_base, "encode_value", forbidden)
    monkeypatch.setattr(air_base, "decode_value", forbidden)
    network.apply_updates(random_update_batch(network, random.Random(5)))
    assert scheme.shadow_rebuild(network, network.pending_delta()) is None


def _cached_system(seed: int = 3) -> AirSystem:
    network = random_network(seed)
    network.clear_delta()
    system = AirSystem(network)
    for name in ("DJ", "NR", "HiTi"):
        system.scheme(name, **SMALL_PARAMS[name])
    return system


def _state(system: AirSystem):
    return (
        dict(system._schemes),
        system.network.pending_delta(),
        system._clean_fingerprint,
        system.lineage(),
    )


def _assert_unchanged(system: AirSystem, state) -> None:
    schemes, delta, clean, lineage = state
    assert system._schemes.keys() == schemes.keys()
    assert all(system._schemes[key] is scheme for key, scheme in schemes.items())
    assert system.network.pending_delta() == delta
    assert system._clean_fingerprint == clean
    assert system.lineage() == lineage
    assert system._refresh_alias == {}


def test_failed_refresh_leaves_everything_as_it_was():
    system = _cached_system()
    system.network.apply_updates(random_update_batch(system.network, random.Random(1)))
    state = _state(system)
    fault_runtime.install(FaultPlan([FaultSpec("engine.refresh.fail", times=1)], seed=0))
    try:
        with pytest.raises(FaultInjected):
            system.refresh()
    finally:
        fault_runtime.clear()
    _assert_unchanged(system, state)
    # The next refresh consumes the same, still pending delta.
    report = system.refresh()
    assert sorted(report.incremental) == ["DJ", "HiTi", "NR"]
    assert report.shadow_errors == ()


def test_scratch_build_failing_midway_applies_nothing(monkeypatch):
    """A structural delta rebuilds every entry from scratch; the second
    build raising must not leave the first one swapped in."""
    system = _cached_system()
    nodes = system.network.node_ids()
    system.network.add_edge(nodes[0], nodes[-1], 7.0)
    state = _state(system)
    create = air.registry.create
    calls = []

    def failing_second(name, network, **params):
        calls.append(name)
        if len(calls) == 2:
            raise RuntimeError("scratch build failed")
        return create(name, network, **params)

    monkeypatch.setattr(air.registry, "create", failing_second)
    with pytest.raises(RuntimeError, match="scratch build failed"):
        system.refresh()
    _assert_unchanged(system, state)


def test_raising_shadow_rebuild_falls_back_to_a_scratch_build(monkeypatch):
    system = _cached_system()

    def broken(self, network, delta):
        raise RuntimeError("repair failed")

    monkeypatch.setattr(NextRegionScheme, "shadow_rebuild", broken)
    system.network.apply_updates(random_update_batch(system.network, random.Random(2)))
    report = system.refresh()
    assert report.rebuilt == ("NR",)
    assert sorted(report.incremental) == ["DJ", "HiTi"]
    assert report.shadow_errors == (("NR", "RuntimeError: repair failed"),)
    info = system.cache_info()
    assert info.full_rebuilds == 1 and info.incremental_rebuilds == 2
    params = SMALL_PARAMS["NR"]
    scratch = air.create("NR", system.network, **params)
    assert system.scheme("NR", **params).cycle.signature() == scratch.cycle.signature()


def test_cache_cannot_be_pruned_under_an_in_flight_refresh(monkeypatch):
    """``prune_cache``/``clear_cache`` raise while ``refresh_async`` runs,
    and a query meanwhile is served by the superseded entry (no miss)."""
    system = _cached_system()
    params = SMALL_PARAMS["NR"]
    release = threading.Event()
    shadow_rebuild = NextRegionScheme.shadow_rebuild

    def gated(self, network, delta):
        assert release.wait(30)
        return shadow_rebuild(self, network, delta)

    monkeypatch.setattr(NextRegionScheme, "shadow_rebuild", gated)
    system.network.apply_updates(random_update_batch(system.network, random.Random(4)))
    nodes = system.network.node_ids()
    handle = system.refresh_async()
    try:
        misses = system.cache_info().misses
        with pytest.raises(RuntimeError, match="in flight"):
            system.prune_cache()
        with pytest.raises(RuntimeError, match="in flight"):
            system.clear_cache()
        system.query("NR", nodes[0], nodes[-1], **params)
        assert system.cache_info().misses == misses
    finally:
        release.set()
    report = handle.wait(timeout=30)
    assert sorted(report.incremental) == ["DJ", "HiTi", "NR"]
    assert report.dropped == ()
    assert system.prune_cache() == 0
