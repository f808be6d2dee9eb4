"""Tests for the experiment harness (workloads, runner, applicability, report)."""

import pytest

from repro import air
from repro.engine import AirSystem
from repro.experiments import (
    ExperimentConfig,
    QueryWorkload,
    method_applicability,
    report,
    run_workload,
    scaled_device,
)
from repro.experiments.finetune import finetune_sweep


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
def workload(medium_network):
    return QueryWorkload(medium_network, num_queries=8, seed=2)


class TestWorkload:
    def test_requested_number_of_queries(self, workload):
        assert len(workload) == 8

    def test_queries_are_connected_and_distinct(self, workload):
        for query in workload:
            assert query.source != query.target
            assert query.true_distance < float("inf")

    def test_deterministic_per_seed(self, medium_network):
        a = QueryWorkload(medium_network, 5, seed=9).pairs()
        b = QueryWorkload(medium_network, 5, seed=9).pairs()
        assert a == b

    def test_bucketing_covers_all_queries(self, workload):
        buckets = workload.bucket_by_length(4)
        assert sum(len(queries) for queries in buckets.values()) == len(workload)
        assert len(buckets) == 4

    def test_bucket_edges_increase(self, workload):
        labels = list(workload.bucket_by_length(4))
        lows = [float(label.split("-")[0]) for label in labels]
        assert lows == sorted(lows)

    def test_diameter_estimate_positive(self, workload):
        assert workload.network_diameter_estimate(samples=2) > 0


def build_scheme(method, network, config):
    """A scheme built with the experiment configuration's parameters."""
    return air.create(method, network, **air.params_from_config(method, config))


def compare_methods(methods, network, workload, config):
    return AirSystem(network, config=config).compare(methods, workload)


class TestRunner:
    def test_build_scheme_for_every_method(self, medium_network, config):
        for method in ["DJ", "NR", "EB", "LD", "AF"]:
            scheme = build_scheme(method, medium_network, config)
            assert scheme.short_name == method

    def test_unknown_method_rejected(self, medium_network, config):
        with pytest.raises(ValueError):
            air.create("XYZ", medium_network)

    def test_run_workload_has_no_mismatches(self, nr_scheme, workload, config):
        run = run_workload(nr_scheme, list(workload)[:5], config)
        assert run.mismatches == 0
        assert len(run.per_query) == 5
        assert run.mean.tuning_time_packets > 0

    def test_compare_methods_produces_one_run_per_method(self, medium_network, workload, config):
        runs = compare_methods(["DJ", "NR"], medium_network, workload, config)
        assert set(runs) == {"DJ", "NR"}
        for run in runs.values():
            assert run.mismatches == 0

    def test_nr_beats_dijkstra_on_tuning(self, medium_network, workload, config):
        """The paper's headline result at any scale."""
        runs = compare_methods(["DJ", "NR"], medium_network, workload, config)
        assert runs["NR"].mean.tuning_time_packets < runs["DJ"].mean.tuning_time_packets
        assert runs["NR"].mean.peak_memory_bytes < runs["DJ"].mean.peak_memory_bytes


class TestApplicability:
    def test_scaled_device_shrinks_heap(self, config):
        device = scaled_device(config.device, 0.5)
        assert device.heap_bytes == config.device.heap_bytes // 2

    def test_applicability_results_cover_grid(self, config):
        results = method_applicability(
            ["DJ", "NR"], ["milan"], config, probe_queries=2
        )
        assert len(results) == 2
        for result in results:
            assert result.peak_memory_bytes > 0
            assert isinstance(result.applicable, bool)


class TestFinetune:
    def test_sweep_produces_requested_points(self, medium_network, workload, config):
        points = finetune_sweep(
            medium_network,
            list(workload)[:4],
            config,
            settings=[8, 16],
            methods=("NR", "DJ"),
        )
        assert [point.regions for point in points] == [8, 16]
        for point in points:
            assert set(point.runs) == {"NR", "DJ"}

    def test_unsweepable_method_rejected(self, medium_network, workload, config):
        with pytest.raises(ValueError, match="no fine-tuning sweep"):
            finetune_sweep(
                medium_network, list(workload)[:2], config, settings=[8], methods=("SPQ",)
            )

    def test_arcflag_skipped_beyond_cap(self, medium_network, workload, config):
        points = finetune_sweep(
            medium_network,
            list(workload)[:2],
            config,
            settings=[8, 16],
            methods=("AF",),
            max_arcflag_regions=8,
        )
        assert "AF" in points[0].runs
        assert "AF" not in points[1].runs


class TestReport:
    def test_format_table_alignment(self):
        text = report.format_table(
            ["Method", "Packets"], [["NR", 123], ["EB", 4567]], title="Table"
        )
        lines = text.splitlines()
        assert lines[0] == "Table"
        assert "NR" in lines[2] or "NR" in lines[3]
        assert len(lines) == 5

    def test_format_series(self):
        line = report.format_series("NR", {"0-3.5": 1.5, "3.5-7": 2.0})
        assert line.startswith("NR:")
        assert "0-3.5" in line

    def test_unit_conversions(self):
        assert report.bytes_to_mb(1024 * 1024) == 1.0
        assert report.packets_to_thousands(2500) == 2.5
