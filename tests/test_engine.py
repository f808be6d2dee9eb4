"""Tests for the engine layer: AirSystem facade, cycle cache, batching."""


import pytest

from repro.air import ClientOptions
from repro.engine import AirSystem, MethodRun
from repro.experiments import (
    ExperimentConfig,
    QueryWorkload,
    run_workload,
)


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        network="germany",
        scale=0.01,
        seed=3,
        num_queries=6,
        eb_nr_regions=8,
        arcflag_regions=8,
        hiti_regions=8,
        num_landmarks=2,
    )


@pytest.fixture(scope="module")
def system(medium_network, config):
    return AirSystem(medium_network, config=config)


@pytest.fixture(scope="module")
def workload50(medium_network):
    """The acceptance-criteria workload: 50 queries."""
    return QueryWorkload(medium_network, num_queries=50, seed=17)


def _deterministic_fields(metrics):
    """Every per-query metric except the wall-clock CPU measurement."""
    return (
        metrics.tuning_time_packets,
        metrics.access_latency_packets,
        metrics.peak_memory_bytes,
        metrics.lost_packets,
    )


class TestCycleCache:
    def test_same_scheme_and_params_build_once(self, system):
        system.clear_cache()
        first = system.scheme("NR")
        second = system.scheme("NR")
        assert first is second
        info = system.cache_info()
        assert info.misses == 1
        assert info.hits == 1
        assert info.entries == 1

    def test_explicit_params_matching_config_defaults_hit(self, system, config):
        system.clear_cache()
        implied = system.scheme("NR")
        explicit = system.scheme("NR", num_regions=config.eb_nr_regions)
        assert implied is explicit
        assert system.cache_info().misses == 1

    def test_different_params_are_different_entries(self, system, config):
        system.clear_cache()
        default = system.scheme("NR")
        halved = system.scheme("NR", num_regions=config.eb_nr_regions // 2)
        assert default is not halved
        assert system.cache_info().entries == 2

    def test_case_insensitive_names_share_an_entry(self, system):
        system.clear_cache()
        assert system.scheme("nr") is system.scheme("NR")
        assert system.cache_info().misses == 1

    def test_cached_schemes_have_built_cycles(self, system):
        scheme = system.scheme("DJ")
        assert scheme._cycle is not None

    def test_workload_over_all_methods_builds_each_once(self, system, workload50):
        system.clear_cache()
        queries = list(workload50)[:5]
        for _ in range(3):
            for method in ("NR", "DJ"):
                run = system.query_batch(method, queries)
                assert run.mismatches == 0
        info = system.cache_info()
        assert info.misses == 2
        assert info.entries == 2

    def test_identical_network_copy_hits_the_cache_key(self, medium_network, config):
        """The cache key uses the structural fingerprint, not object identity."""
        assert medium_network.copy().fingerprint() == medium_network.fingerprint()

    def test_clear_cache_resets_counters(self, system):
        system.scheme("NR")
        system.clear_cache()
        info = system.cache_info()
        assert (info.hits, info.misses, info.entries) == (0, 0, 0)


class TestCycleCacheInvalidation:
    """Mutating the network must invalidate cached cycles, not serve stale ones."""

    @pytest.fixture()
    def mutable_system(self, medium_network, config):
        # A private copy: these tests mutate the network in place.
        return AirSystem(medium_network.copy(), config=config)

    def test_add_edge_changes_fingerprint_and_rebuilds(self, mutable_system):
        system = mutable_system
        network = system.network
        before = network.fingerprint()
        stale = system.scheme("NR")
        nodes = network.node_ids()
        network.add_edge(nodes[0], nodes[-1], 123.0)
        assert network.fingerprint() != before
        rebuilt = system.scheme("NR")
        assert rebuilt is not stale
        assert system.cache_info().misses == 2

    def test_remove_edge_changes_fingerprint_and_rebuilds(self, mutable_system):
        system = mutable_system
        network = system.network
        edge = next(iter(network.edges()))
        stale = system.scheme("DJ")
        before = network.fingerprint()
        network.remove_edge(edge.source, edge.target)
        assert network.fingerprint() != before
        assert system.scheme("DJ") is not stale

    def test_reverting_a_mutation_restores_the_cached_entry(self, mutable_system):
        system = mutable_system
        network = system.network
        original = system.scheme("NR")
        nodes = network.node_ids()
        network.add_edge(nodes[0], nodes[-1], 99.0)
        mutated = system.scheme("NR")
        network.remove_edge(nodes[0], nodes[-1])
        # Same structure, same fingerprint: the original entry hits again.
        assert system.scheme("NR") is original
        assert system.scheme("NR") is not mutated

    def test_channels_are_not_served_stale_either(self, mutable_system):
        system = mutable_system
        network = system.network
        stale_channel = system.channel("NR")
        nodes = network.node_ids()
        network.add_edge(nodes[1], nodes[-2], 77.0)
        fresh_channel = system.channel("NR")
        assert fresh_channel is not stale_channel
        assert fresh_channel.cycle is system.scheme("NR").cycle

    def test_fingerprint_is_memoized_while_unchanged(self, medium_network):
        network = medium_network.copy()
        assert network.fingerprint() is network.fingerprint()

    def test_prune_cache_drops_superseded_structures_only(self, mutable_system):
        system = mutable_system
        network = system.network
        system.scheme("NR")
        system.channel("NR")
        nodes = network.node_ids()
        network.add_edge(nodes[0], nodes[-1], 42.0)
        current = system.scheme("NR")
        system.channel("NR")
        dropped = system.prune_cache()
        assert dropped == 2  # one stale scheme entry, one stale channel
        assert system.cache_info().entries == 1
        # The entry for the current structure survives and still hits.
        assert system.scheme("NR") is current
        assert system.prune_cache() == 0


class TestQueryBatchEquivalence:
    @pytest.mark.parametrize("method", ["NR", "EB", "DJ"])
    def test_batch_matches_sequential_run_workload(self, system, config, workload50, method):
        """The acceptance criterion: 50 batched queries == per-query loop."""
        batched = system.query_batch(method, workload50)
        scheme = system.scheme(method)
        sequential = run_workload(scheme, workload50, config)
        assert len(batched.per_query) == len(sequential.per_query) == 50
        assert batched.mismatches == sequential.mismatches == 0
        for ours, theirs in zip(batched.per_query, sequential.per_query):
            assert _deterministic_fields(ours) == _deterministic_fields(theirs)

    def test_batch_matches_manual_client_loop(self, system, workload50):
        """query_batch == hand-rolled client.query loop over one channel."""
        batched = system.query_batch("NR", workload50)
        scheme = system.scheme("NR")
        channel = scheme.channel()
        client = scheme.client()
        for query, metrics in zip(workload50, batched.per_query):
            result = client.query(query.source, query.target, channel=channel)
            assert abs(result.distance - query.true_distance) <= 1e-6 * max(
                1.0, query.true_distance
            )
            assert _deterministic_fields(result.metrics) == _deterministic_fields(metrics)

    def test_concurrency_does_not_change_results(self, system, workload50):
        sequential = system.query_batch("NR", workload50)
        threaded = system.query_batch("NR", workload50, concurrency=4)
        chunked = system.query_batch("NR", workload50, concurrency=2, chunk_size=3)
        for runs in (threaded, chunked):
            assert runs.mismatches == sequential.mismatches
            assert [
                _deterministic_fields(m) for m in runs.per_query
            ] == [_deterministic_fields(m) for m in sequential.per_query]

    def test_lossy_batch_stays_exact_and_deterministic(self, system, workload50):
        queries = list(workload50)[:10]
        first = system.query_batch("NR", queries, loss_rate=0.05, loss_seed=9)
        second = system.query_batch("NR", queries, loss_rate=0.05, loss_seed=9)
        assert first.mismatches == second.mismatches == 0
        assert [m.lost_packets for m in first.per_query] == [
            m.lost_packets for m in second.per_query
        ]
        assert sum(m.lost_packets for m in first.per_query) > 0

    def test_plain_pairs_are_accepted(self, system, workload50):
        pairs = [(q.source, q.target) for q in list(workload50)[:5]]
        run = system.query_batch("DJ", pairs)
        assert len(run.per_query) == 5
        assert run.mismatches == 0  # no ground truth -> nothing to mismatch

    def test_empty_workload_with_concurrency_never_spins_up_a_pool(
        self, system, monkeypatch
    ):
        import repro.concurrency

        def forbidden(*args, **kwargs):
            raise AssertionError("thread pool created for an empty workload")

        monkeypatch.setattr(repro.concurrency, "ThreadPoolExecutor", forbidden)
        run = system.query_batch("NR", [], concurrency=8)
        assert run.per_query == []
        assert run.mismatches == 0

    @pytest.mark.parametrize("concurrency", [0, -1])
    def test_concurrency_below_one_raises(self, system, workload50, concurrency):
        queries = list(workload50)[:2]
        with pytest.raises(ValueError, match="concurrency"):
            system.query_batch("NR", queries, concurrency=concurrency)


class TestSystemSurface:
    def test_compare_returns_method_runs(self, system, workload50):
        queries = list(workload50)[:5]
        runs = system.compare(["NR", "DJ"], queries)
        assert set(runs) == {"NR", "DJ"}
        for run in runs.values():
            assert isinstance(run, MethodRun)
            assert run.mismatches == 0

    def test_compare_defaults_to_comparison_schemes(self, system, workload50):
        runs = system.compare(workload=list(workload50)[:2])
        assert set(runs) == {"DJ", "NR", "EB", "LD", "AF"}

    def test_channel_cache_keys_on_resolved_params(self, system, config):
        """Equivalent param spellings share one channel (one session sequence)."""
        implied = system.channel("NR")
        explicit = system.channel("NR", num_regions=config.eb_nr_regions)
        assert implied is explicit

    def test_single_query_advances_sessions(self, system, medium_network):
        nodes = medium_network.node_ids()
        first = system.query("NR", nodes[0], nodes[-1])
        second = system.query("NR", nodes[0], nodes[-1])
        assert first.found and second.found
        assert first.distance == second.distance
        # The memoized channel advances its session count, so consecutive
        # queries tune in at different cycle offsets (as in the paper).
        latencies = {
            first.metrics.access_latency_packets,
            second.metrics.access_latency_packets,
            system.query("NR", nodes[0], nodes[-1]).metrics.access_latency_packets,
        }
        assert len(latencies) > 1

    def test_from_config_builds_the_configured_network(self, config):
        built = AirSystem.from_config(config)
        assert built.network.name == "germany"
        assert built.default_options.device is config.device

    def test_memory_bound_option_threads_through(self, system, workload50):
        queries = list(workload50)[:15]
        plain = system.query_batch("NR", queries)
        bound = system.query_batch("NR", queries, memory_bound=True)
        assert bound.mismatches == 0
        # Section 6.1 compression lowers the average working set (Figure 13).
        assert bound.mean.peak_memory_bytes < plain.mean.peak_memory_bytes
        assert bound.mean.cpu_seconds > 0.0

    def test_memory_bound_rejected_for_full_cycle_schemes(self, system):
        with pytest.raises(ValueError, match="memory-bound"):
            system.client("DJ", ClientOptions(memory_bound=True))


class TestConfigValidation:
    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError, match="unknown network"):
            ExperimentConfig(network="atlantis")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scale": 0.0},
            {"scale": -1.0},
            {"num_queries": 0},
            {"eb_nr_regions": 0},
            {"arcflag_regions": -4},
            {"hiti_regions": 0},
            {"num_landmarks": 0},
            {"loss_rates": [0.5, 1.5]},
            {"finetune_settings": [16, 0]},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_valid_config_accepted(self):
        config = ExperimentConfig(network="milan", scale=0.5, num_queries=1)
        assert config.network == "milan"


class TestVersionedRefresh:
    """The dynamic-network refresh path: lineage, counters, edge cases."""

    @pytest.fixture()
    def fresh_system(self, medium_network, config):
        network = medium_network.copy()
        network.clear_delta()
        return AirSystem(network, config=config)

    @staticmethod
    def _bump_weight(network, factor=1.5):
        edge = next(iter(network.edges()))
        weight = network.edge_weight(edge.source, edge.target)
        network.update_edge_weight(edge.source, edge.target, weight * factor)
        return edge

    def test_refresh_on_clean_network_is_a_noop(self, fresh_system):
        report = fresh_system.refresh()
        assert report.noop
        assert report.parent_fingerprint == report.fingerprint
        assert fresh_system.cache_info().incremental_rebuilds == 0

    def test_weight_update_installs_a_replacement(self, fresh_system):
        system = fresh_system
        before = system.scheme("NR")
        payload = before.artifact().payload
        signature = before.cycle.signature()
        # A much cheaper edge out of a border node moves that source's labels.
        border = set(before.partitioning.border_nodes(0))
        edge = next(e for e in system.network.edges() if e.source in border)
        system.network.update_edge_weight(edge.source, edge.target, edge.weight * 0.01)
        report = system.refresh()
        assert report.incremental == ("NR",)
        assert report.rebuilt == ()
        assert not report.structural
        assert report.num_changes == 1
        # A replacement is keyed to the new structure; the replaced scheme
        # keeps its pre-delta border-path labels and cycle, while the
        # replacement carries the repaired ones.
        after = system.scheme("NR")
        assert after is not before
        assert before.artifact().payload == payload
        assert before.cycle.signature() == signature
        assert after.artifact().payload != payload
        info = system.cache_info()
        assert info.incremental_rebuilds == 1 and info.full_rebuilds == 0
        assert info.entries == 1

    def test_structural_mutation_forces_full_rebuild(self, fresh_system):
        system = fresh_system
        stale = system.scheme("NR")
        nodes = system.network.node_ids()
        system.network.add_edge(nodes[0], nodes[-1], 123.0)
        report = system.refresh()
        assert report.structural
        assert report.rebuilt == ("NR",)
        assert system.scheme("NR") is not stale
        assert system.cache_info().full_rebuilds == 1

    def test_lineage_chains_across_refreshes(self, fresh_system):
        system = fresh_system
        fingerprints = [system.network.fingerprint()]
        system.scheme("DJ")
        for factor in (1.5, 2.5):
            self._bump_weight(system.network, factor)
            system.refresh()
            fingerprints.append(system.network.fingerprint())
        assert system.lineage() == list(reversed(fingerprints))
        # An unknown fingerprint has no recorded ancestry.
        assert system.lineage("no-such-fingerprint") == ["no-such-fingerprint"]

    def test_refresh_drops_entry_already_rebuilt_by_a_query(self, fresh_system):
        system = fresh_system
        system.scheme("NR")
        self._bump_weight(system.network)
        rebuilt = system.scheme("NR")  # full rebuild at the new fingerprint
        report = system.refresh()
        assert report.dropped == ("NR",)
        assert report.incremental == () and report.rebuilt == ()
        assert system.cache_info().entries == 1
        assert system.scheme("NR") is rebuilt

    def test_prune_after_interleaved_mutate_query_refresh(self, fresh_system):
        """prune_cache() leaves exactly the live structure after a busy loop."""
        system = fresh_system
        system.scheme("NR")
        system.channel("NR")
        self._bump_weight(system.network, 1.5)
        system.scheme("NR")  # rebuilt by a query before any refresh
        self._bump_weight(system.network, 2.0)
        report = system.refresh()
        # The oldest entry follows the coalesced delta onto the live
        # fingerprint; the mid-stream rebuild is now stale.
        assert report.dropped == () and report.incremental == ("NR",)
        assert system.cache_info().entries == 2
        assert system.prune_cache() == 1
        current = system.network.fingerprint()
        live = system.scheme("NR")
        assert all(key[2] == current for key in system._schemes)
        assert system.scheme("NR") is live
        assert system.prune_cache() == 0

    def test_apply_updates_applies_and_refreshes_in_one_call(self, fresh_system):
        system = fresh_system
        system.scheme("DJ")
        edge = next(iter(system.network.edges()))
        weight = system.network.edge_weight(edge.source, edge.target)
        report = system.apply_updates([(edge.source, edge.target, weight * 3.0)])
        assert report.incremental == ("DJ",)
        assert system.network.edge_weight(edge.source, edge.target) == weight * 3.0
        assert not system.network.has_pending_delta

    def test_refreshed_channels_serve_the_refreshed_cycle(self, fresh_system):
        system = fresh_system
        stale_channel = system.channel("NR")
        self._bump_weight(system.network)
        system.refresh()
        fresh_channel = system.channel("NR")
        assert fresh_channel is not stale_channel
        assert fresh_channel.cycle is system.scheme("NR").cycle


class TestChannelOptionsKeying:
    """Regression: the channel cache must key on the full client options."""

    @pytest.fixture()
    def pair(self, query_pairs):
        return query_pairs[0]

    def test_memory_bound_clients_do_not_share_session_sequences(
        self, medium_network, config, pair
    ):
        source, target = pair
        bound = ClientOptions(memory_bound=True)
        plain = ClientOptions()

        alone = AirSystem(medium_network.copy(), config=config).query(
            "NR", source, target, bound
        )
        shared = AirSystem(medium_network.copy(), config=config)
        shared.query("NR", source, target, plain)  # must not advance bound's channel
        interleaved = shared.query("NR", source, target, bound)

        assert interleaved.distance == alone.distance
        assert _deterministic_fields(interleaved.metrics) == _deterministic_fields(
            alone.metrics
        )

    def test_channel_cache_distinguishes_option_sets(self, medium_network, config):
        system = AirSystem(medium_network.copy(), config=config)
        default = system.channel("NR")
        assert system.channel("NR") is default
        bound = system.channel("NR", options=ClientOptions(memory_bound=True))
        assert bound is not default
        assert system.channel("NR", options=ClientOptions(memory_bound=True)) is bound
        lossy = system.channel("NR", loss_rate=0.1, seed=3)
        assert lossy is not default
