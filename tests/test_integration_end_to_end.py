"""End-to-end integration tests across the whole stack.

These tests mirror the paper's evaluation loop in miniature: build a scaled
paper network, construct every scheme, push the same query workload through
all of them over a (possibly lossy) channel, and check both correctness and
the qualitative relationships the paper reports.
"""

import pytest

from repro.engine import AirSystem
from repro.experiments import ExperimentConfig, QueryWorkload
from repro.network import datasets


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig(
        network="milan",
        scale=0.015,
        seed=5,
        num_queries=10,
        eb_nr_regions=8,
        arcflag_regions=8,
        num_landmarks=2,
    )


@pytest.fixture(scope="module")
def network(config):
    return datasets.load(config.network, scale=config.scale, seed=config.seed)


@pytest.fixture(scope="module")
def workload(network, config):
    return QueryWorkload(network, config.num_queries, seed=config.seed)


@pytest.fixture(scope="module")
def system(network, config):
    return AirSystem(network, config=config)


@pytest.fixture(scope="module")
def runs(system, workload):
    return system.compare(["DJ", "NR", "EB", "LD", "AF"], workload)


class TestCorrectnessAcrossMethods:
    def test_no_method_returns_a_wrong_distance(self, runs):
        for method, run in runs.items():
            assert run.mismatches == 0, f"{method} returned wrong distances"

    def test_every_method_processed_every_query(self, runs, workload):
        for run in runs.values():
            assert len(run.per_query) == len(workload)


class TestPaperShapeClaims:
    def test_dijkstra_cycle_is_shortest(self, runs):
        dijkstra_cycle = runs["DJ"].server.cycle_packets
        for method, run in runs.items():
            assert run.server.cycle_packets >= dijkstra_cycle

    def test_nr_and_eb_cycles_close_to_dijkstra(self, runs):
        """Table 1: NR and EB broadcast very little indexing information."""
        dijkstra_cycle = runs["DJ"].server.cycle_packets
        assert runs["NR"].server.cycle_packets <= 1.6 * dijkstra_cycle
        assert runs["EB"].server.cycle_packets <= 1.8 * dijkstra_cycle

    def test_nr_has_lowest_tuning_time(self, runs):
        nr = runs["NR"].mean.tuning_time_packets
        for method in ("DJ", "LD", "AF"):
            assert nr < runs[method].mean.tuning_time_packets

    def test_nr_has_lowest_memory(self, runs):
        nr = runs["NR"].mean.peak_memory_bytes
        for method in ("DJ", "LD", "AF"):
            assert nr < runs[method].mean.peak_memory_bytes

    def test_eb_better_than_full_cycle_methods_on_tuning(self, runs):
        eb = runs["EB"].mean.tuning_time_packets
        assert eb < runs["LD"].mean.tuning_time_packets
        assert eb < runs["AF"].mean.tuning_time_packets

    def test_full_cycle_methods_memory_equals_their_cycle(self, runs):
        for method in ("DJ", "LD", "AF"):
            run = runs[method]
            assert run.mean.peak_memory_bytes >= run.server.cycle_bytes


class TestLossyChannelIntegration:
    def test_all_methods_stay_correct_at_five_percent_loss(self, system, workload):
        lossy_runs = system.compare(["DJ", "NR", "EB"], workload, loss_rate=0.05)
        for method, run in lossy_runs.items():
            assert run.mismatches == 0

    def test_loss_increases_mean_tuning(self, system, workload, runs):
        lossy_runs = system.compare(["DJ"], workload, loss_rate=0.10)
        assert (
            lossy_runs["DJ"].mean.tuning_time_packets
            > runs["DJ"].mean.tuning_time_packets
        )
