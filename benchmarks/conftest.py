"""Shared fixtures and report plumbing for the table/figure benchmarks.

Every benchmark module reproduces one table or figure of the paper: it builds
the (scaled) evaluation network, runs the competing methods, prints the rows
or series the paper reports, and stores the same text under
``benchmarks/reports/`` so the output survives pytest's capture.  Those
text reports are generated and untracked (every run rewrites them with its
host's timings); CI uploads them as an artifact, and a recorded run meant
to be kept goes in a subdirectory, such as ``benchmarks/reports/paper_scale/``.

The network scale defaults to ``REPRO_SCALE`` (see
:mod:`repro.experiments.config`); absolute numbers therefore differ from the
paper, but the relative behaviour -- which method wins and by roughly what
factor -- is what the reports are meant to show.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys

import pytest

from repro.experiments import ExperimentConfig, scale_from_env
from repro.version import __version__

REPORT_DIR = pathlib.Path(__file__).parent / "reports"
#: Default destination of the machine-readable ``BENCH_*.json`` reports:
#: the repository root, so the perf trajectory is versioned next to the
#: code.  Overridable per run with ``--bench-json-dir``.
ROOT_DIR = pathlib.Path(__file__).parent.parent
_json_dir = ROOT_DIR

# The test oracles (``tests/oracles``) double as the benchmarks' plain
# baselines.  Appended, not prepended, so ``conftest`` keeps resolving here.
sys.path.append(str(ROOT_DIR / "tests"))


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--bench-json-dir",
        default=None,
        help="Directory for the machine-readable BENCH_<name>.json reports "
        "(default: the repository root).",
    )


def pytest_configure(config) -> None:
    global _json_dir
    override = config.getoption("--bench-json-dir", default=None)
    if override:
        _json_dir = pathlib.Path(override)


def write_report(name: str, text: str) -> None:
    """Print a report and persist it under ``benchmarks/reports/``."""
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print()
    print(text)


def write_json_report(name: str, payload: dict) -> pathlib.Path:
    """Persist a machine-readable benchmark report as ``BENCH_<name>.json``.

    The payload is wrapped with enough provenance (package version, python
    and platform) for longitudinal comparisons across runs; keys are sorted
    so diffs between runs stay readable.
    """
    document = {
        "benchmark": name,
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": sys.platform,
        "results": payload,
    }
    _json_dir.mkdir(parents=True, exist_ok=True)
    path = _json_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"[bench-json] wrote {path}")
    return path


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """Configuration shared by the benchmarks (smaller workloads than tests)."""
    # Region and landmark counts follow the paper's fine-tuning (32/16/4 for
    # full-size Germany) scaled down with the network: at REPRO_SCALE=0.05 a
    # region keeps roughly the same node population as in the paper.
    return ExperimentConfig(
        network="germany",
        scale=scale_from_env(0.05),
        seed=13,
        num_queries=int(os.environ.get("REPRO_BENCH_QUERIES", "16")),
        eb_nr_regions=16,
        arcflag_regions=16,
        hiti_regions=16,
        num_landmarks=4,
    )


@pytest.fixture(scope="session")
def small_bench_config(bench_config) -> ExperimentConfig:
    """Reduced-scale configuration for the multi-network experiments."""
    return ExperimentConfig(
        network=bench_config.network,
        scale=min(bench_config.scale, 0.02),
        seed=bench_config.seed,
        num_queries=max(6, bench_config.num_queries // 2),
        eb_nr_regions=16,
        arcflag_regions=16,
        hiti_regions=16,
        num_landmarks=4,
    )


def check_point_to_point(got, want, target: int) -> None:
    """A kernel point-to-point result against the stopped oracle loop
    ``want`` (``tests/oracles/dijkstra.py``): the answer -- distance, path,
    settled count -- and every settled node's label and predecessor."""
    answer = got.path_result(target)
    assert answer.distance == want.distance_to(target), (got.source, target)
    assert answer.path == want.path_to(target), (got.source, target)
    assert answer.settled == want.settled, (got.source, target)
    index_of = got.csr.index_of
    pred = got.pred
    for node in want.settled_nodes:
        assert got.distance_to(node) == want.distances[node], (got.source, node)
        parent = want.predecessors[node]
        assert pred[index_of[node]] == (
            -1 if parent is None else index_of[parent]
        ), (got.source, node)
