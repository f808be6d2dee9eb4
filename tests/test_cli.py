"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    buffer = io.StringIO()
    code = main(argv, out=buffer)
    return code, buffer.getvalue()


COMMON = ["--network", "milan", "--scale", "0.01", "--seed", "3", "--regions", "8"]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_network(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cycle", "--network", "atlantis"])

    def test_defaults(self):
        args = build_parser().parse_args(["cycle"])
        assert args.network == "germany"
        assert args.method == "NR"


class TestSchemesCommand:
    def test_lists_every_registered_scheme(self):
        from repro import air

        code, output = run_cli(["schemes"])
        assert code == 0
        for name in air.available_schemes():
            assert name in output

    def test_shows_parameters_and_defaults(self):
        code, output = run_cli(["schemes"])
        assert code == 0
        assert "num_regions=32" in output  # NR default, from the registry
        assert "num_landmarks=4" in output  # LD default


class TestSchemeNameResolution:
    def test_method_names_are_case_insensitive(self):
        args = build_parser().parse_args(["cycle", "--method", "hiti"])
        assert args.method == "HiTi"

    def test_unknown_method_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cycle", "--method", "XYZ"])

    def test_methods_list_is_parsed_and_canonicalized(self):
        args = build_parser().parse_args(["compare", "--methods", "nr, dj"])
        assert args.methods == ["NR", "DJ"]


class TestCycleCommand:
    def test_prints_cycle_statistics(self):
        code, output = run_cli(["cycle", "--method", "NR"] + COMMON)
        assert code == 0
        assert "cycle packets" in output
        assert "pre-computation seconds" in output

    def test_dijkstra_cycle_has_no_index_packets(self):
        code, output = run_cli(["cycle", "--method", "DJ"] + COMMON)
        assert code == 0
        index_row = next(line for line in output.splitlines() if "index packets" in line)
        assert index_row.split()[-1] == "0"


class TestQueryCommand:
    def test_runs_requested_number_of_queries(self):
        code, output = run_cli(["query", "--method", "NR", "--queries", "4"] + COMMON)
        assert code == 0
        data_lines = [line for line in output.splitlines() if "->" in line]
        assert len(data_lines) == 4

    def test_memory_bound_flag_accepted(self):
        code, output = run_cli(
            ["query", "--method", "EB", "--queries", "2", "--memory-bound"] + COMMON
        )
        assert code == 0
        assert "EB on-air queries" in output

    def test_lossy_channel(self):
        code, output = run_cli(
            ["query", "--method", "NR", "--queries", "2", "--loss-rate", "0.05"] + COMMON
        )
        assert code == 0
        assert "loss=0.05" in output


class TestConfigErrors:
    def test_invalid_value_is_a_one_line_error_with_exit_2(self, capsys):
        code, output = run_cli(["fleet", "--network", "milan", "--scale", "-1", "--devices", "5"])
        assert code == 2
        assert output == ""
        err = capsys.readouterr().err
        assert err == "repro: error: scale must be positive, got -1.0\n"


class TestCompareCommand:
    def test_compares_methods_with_zero_mismatches(self):
        code, output = run_cli(
            ["compare", "--methods", "NR,DJ", "--queries", "4"] + COMMON
        )
        assert code == 0
        lines = [line for line in output.splitlines() if line.startswith(("NR", "DJ"))]
        assert len(lines) == 2
        # Last column is the mismatch count; it must be zero for both.
        assert all(line.split()[-1] == "0" for line in lines)


class TestDynamicCommand:
    def test_congestion_stream_runs_with_zero_mismatches(self):
        code, output = run_cli(
            ["dynamic", "--steps", "3", "--devices", "6"] + COMMON
        )
        assert code == 0
        assert "Dynamic stream 'congestion' x3 steps on NR" in output
        assert "incremental" in output
        summary = [
            line for line in output.splitlines()
            if line.startswith("mismatches vs mutated-network Dijkstra")
        ]
        assert summary and summary[0].split()[-1] == "0"

    def test_closures_stream_and_method_selection(self):
        code, output = run_cli(
            [
                "dynamic", "--stream", "closures", "--method", "dj",
                "--steps", "2", "--devices", "5", "--scenario", "hot-destination",
            ]
            + COMMON
        )
        assert code == 0
        assert "'closures' x2 steps on DJ" in output

    def test_unknown_stream_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dynamic", "--stream", "earthquakes"])


class TestStoreCommand:
    def test_build_then_rebuild_restores_from_store(self, tmp_path):
        argv = ["store", "--dir", str(tmp_path), "build", "--methods", "NR,DJ"] + COMMON
        code, output = run_cli(argv)
        assert code == 0
        assert "built" in output
        code, output = run_cli(argv)
        assert code == 0
        # Second pass restores every scheme from disk instead of rebuilding.
        assert output.count("restored") == 2 and "built" not in output

    def test_ls_lists_stored_artifacts(self, tmp_path):
        run_cli(["store", "--dir", str(tmp_path), "build", "--methods", "NR"] + COMMON)
        code, output = run_cli(["store", "--dir", str(tmp_path), "ls"])
        assert code == 0
        assert "NR" in output and "num_regions=8" in output
        assert "1 entries" in output

    def test_verify_flags_corruption_with_exit_code(self, tmp_path):
        run_cli(["store", "--dir", str(tmp_path), "build", "--methods", "DJ"] + COMMON)
        code, output = run_cli(["store", "--dir", str(tmp_path), "verify"])
        assert code == 0
        from repro.store import ArtifactStore

        (entry,) = ArtifactStore(tmp_path).entries()
        entry.path.write_bytes(entry.path.read_bytes()[:-4])
        code, output = run_cli(["store", "--dir", str(tmp_path), "verify"])
        assert code == 1
        assert "quarantined" in output

    def test_gc_enforces_byte_cap(self, tmp_path):
        run_cli(["store", "--dir", str(tmp_path), "build", "--methods", "NR,DJ"] + COMMON)
        code, output = run_cli(
            ["store", "--dir", str(tmp_path), "gc", "--max-bytes", "0"]
        )
        assert code == 0
        rows = dict(
            line.split(None, 1)
            for line in output.splitlines()
            if line.startswith(("evicted", "remaining_"))
        )
        assert rows["evicted"].strip() == "2"
        assert rows["remaining_entries"].strip() == "0"
        code, output = run_cli(["store", "--dir", str(tmp_path), "ls"])
        assert "0 entries" in output

    def test_store_requires_dir_and_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "ls"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "--dir", "/tmp/x"])

    def test_stats_reports_counters(self, tmp_path):
        run_cli(["store", "--dir", str(tmp_path), "build", "--methods", "NR"] + COMMON)
        code, output = run_cli(["store", "--dir", str(tmp_path), "stats"])
        assert code == 0
        rows = dict(
            line.split(None, 1)
            for line in output.splitlines()
            if line.startswith(("entries", "bytes", "hits", "writes"))
        )
        assert rows["entries"].strip() == "1"
        assert int(rows["bytes"].strip()) > 0

    def test_prune_drops_by_fingerprint_prefix(self, tmp_path):
        run_cli(["store", "--dir", str(tmp_path), "build", "--methods", "NR,DJ"] + COMMON)
        from repro.store import ArtifactStore

        (fingerprint,) = {
            entry.network_fingerprint for entry in ArtifactStore(tmp_path).entries()
        }
        code, output = run_cli(
            ["store", "--dir", str(tmp_path), "prune", "--fingerprints", fingerprint[:10]]
        )
        assert code == 0
        assert "2 objects removed" in output
        code, output = run_cli(["store", "--dir", str(tmp_path), "ls"])
        assert "0 entries" in output

    def test_prune_without_matches_removes_nothing(self, tmp_path):
        run_cli(["store", "--dir", str(tmp_path), "build", "--methods", "NR"] + COMMON)
        code, output = run_cli(
            ["store", "--dir", str(tmp_path), "prune", "--fingerprints", "zzzz"]
        )
        assert code == 0
        assert "0 objects removed" in output
        _, output = run_cli(["store", "--dir", str(tmp_path), "ls"])
        assert "1 entries" in output


class TestServeAndBenchClient:
    def test_serve_then_bench_client_burst_and_shutdown(self, tmp_path):
        import threading
        import time

        socket_path = str(tmp_path / "daemon.sock")
        serve_argv = (
            ["serve", "--methods", "NR", "--workers", "2", "--socket", socket_path]
            + COMMON
        )
        outcome = {}

        def run_daemon():
            outcome["code"], outcome["output"] = run_cli(serve_argv)

        daemon = threading.Thread(target=run_daemon, daemon=True)
        daemon.start()
        deadline = time.time() + 120.0
        import os

        while time.time() < deadline and not os.path.exists(socket_path):
            time.sleep(0.1)
        assert os.path.exists(socket_path), "daemon never opened its socket"

        code, output = run_cli(
            [
                "bench-client",
                "--method",
                "NR",
                "--socket",
                socket_path,
                "--requests",
                "12",
                "--concurrency",
                "2",
                "--shutdown",
            ]
            + COMMON
        )
        assert code == 0
        assert "throughput (qps)" in output
        assert "12 / 0" in output  # every request answered, none errored
        daemon.join(timeout=60.0)
        assert not daemon.is_alive(), "daemon did not stop after the shutdown request"
        assert outcome["code"] == 0
        assert f"serving on unix:{socket_path}" in outcome["output"]

    def test_bench_client_requires_an_address(self):
        with pytest.raises(SystemExit):
            run_cli(["bench-client", "--requests", "1"] + COMMON)


class TestStoreRepair:
    def test_verify_repair_rebuilds_corrupted_artifacts(self, tmp_path):
        build = ["store", "--dir", str(tmp_path), "build", "--methods", "NR,DJ"] + COMMON
        assert run_cli(build)[0] == 0
        from repro.store import ArtifactStore

        entry = ArtifactStore(tmp_path).entries()[0]
        entry.path.write_bytes(entry.path.read_bytes()[:-4])  # torn object

        code, output = run_cli(
            ["store", "--dir", str(tmp_path), "verify", "--repair",
             "--methods", "NR,DJ"] + COMMON
        )
        assert code == 0
        assert "rebuilt" in output and "intact" in output
        assert "post-repair quarantined" in output
        # The store is whole again: a plain verify passes with exit 0.
        code, output = run_cli(["store", "--dir", str(tmp_path), "verify"])
        assert code == 0
        code, output = run_cli(["store", "--dir", str(tmp_path), "ls"])
        assert "2 entries" in output

    def test_verify_repair_on_a_clean_store_is_a_noop(self, tmp_path):
        run_cli(["store", "--dir", str(tmp_path), "build", "--methods", "NR"] + COMMON)
        code, output = run_cli(
            ["store", "--dir", str(tmp_path), "verify", "--repair",
             "--methods", "NR"] + COMMON
        )
        assert code == 0
        assert "intact" in output and "rebuilt" not in output


class TestChaosCommand:
    def test_parser_defaults_and_scenario_choices(self):
        args = build_parser().parse_args(["chaos", "--socket", "/tmp/x.sock"])
        assert args.scenario == "smoke"
        assert args.requests == 200
        assert args.concurrency == 4
        assert args.deadline_ms == 2000.0
        assert args.refreshes == 1
        assert args.min_availability is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--scenario", "earthquake"])

    def test_chaos_requires_an_address(self):
        with pytest.raises(SystemExit):
            run_cli(["chaos", "--requests", "1"] + COMMON)

    def test_chaos_run_against_a_live_daemon(self, tmp_path):
        import os
        import threading
        import time

        socket_path = str(tmp_path / "chaos.sock")
        serve_argv = (
            ["serve", "--methods", "NR", "--workers", "2", "--socket", socket_path]
            + COMMON
        )
        outcome = {}

        def run_daemon():
            outcome["code"], outcome["output"] = run_cli(serve_argv)

        daemon = threading.Thread(target=run_daemon, daemon=True)
        daemon.start()
        deadline = time.time() + 120.0
        while time.time() < deadline and not os.path.exists(socket_path):
            time.sleep(0.1)
        assert os.path.exists(socket_path), "daemon never opened its socket"

        code, output = run_cli(
            [
                "chaos",
                "--socket", socket_path,
                "--scenario", "smoke",
                "--requests", "40",
                "--concurrency", "4",
                "--deadline-ms", "5000",
                "--refreshes", "1",
                "--min-availability", "0.5",
            ]
            + COMMON
        )
        assert code == 0, output
        assert "Chaos run: 40 x NR under 'smoke'" in output
        assert "identity violations" in output
        assert "FAIL" not in output
        # The smoke plan fired at least one fault and it shows in the table.
        fired_row = next(
            line for line in output.splitlines() if "faults fired" in line
        )
        assert fired_row.split(None, 2)[-1].strip() != "-"

        # The run cleared its plan: the daemon serves a clean burst after.
        code, output = run_cli(
            [
                "bench-client",
                "--method", "NR",
                "--socket", socket_path,
                "--requests", "8",
                "--concurrency", "2",
                "--shutdown",
            ]
            + COMMON
        )
        assert code == 0
        assert "8 / 0" in output
        daemon.join(timeout=60.0)
        assert not daemon.is_alive()
        assert outcome["code"] == 0


class TestConsoleScriptEntryPoint:
    def test_pyproject_declares_the_repro_script(self):
        import pathlib

        # tomllib is stdlib only from 3.11; the project supports 3.10.
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert data["project"]["scripts"]["repro"] == "repro.cli:main"

    def test_entry_point_target_is_the_cli_main(self):
        # The console script resolves to the same callable `python -m repro`
        # uses, so both front doors behave identically.
        import repro.cli

        assert repro.cli.main is main
