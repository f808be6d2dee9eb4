"""Experiment harness reproducing the paper's tables and figures.

The benchmarks under ``benchmarks/`` are thin wrappers around this package:
each table/figure has a function here that builds the (scaled) network,
generates the query workload, runs the competing methods through the engine
layer (:class:`~repro.engine.system.AirSystem`), and returns the rows/series
the paper reports.  Schemes come from the registry (``repro.air``) and
comparisons from the engine facade.
"""

from repro.experiments.config import DEFAULT_CONFIG, ExperimentConfig, scale_from_env
from repro.experiments.workloads import (
    FLEET_SCENARIOS,
    Query,
    QueryWorkload,
    fleet_hot_destination,
    fleet_rush_hour,
    fleet_uniform_trickle,
)
from repro.experiments.runner import (
    MethodRun,
    build_network,
    run_workload,
)
from repro.experiments.applicability import (
    ApplicabilityResult,
    method_applicability,
    scaled_device,
)
from repro.experiments.finetune import FinetunePoint, finetune_sweep
from repro.experiments import report

__all__ = [
    "ApplicabilityResult",
    "DEFAULT_CONFIG",
    "ExperimentConfig",
    "FLEET_SCENARIOS",
    "FinetunePoint",
    "fleet_hot_destination",
    "fleet_rush_hour",
    "fleet_uniform_trickle",
    "MethodRun",
    "Query",
    "QueryWorkload",
    "build_network",
    "finetune_sweep",
    "method_applicability",
    "report",
    "run_workload",
    "scale_from_env",
    "scaled_device",
]

