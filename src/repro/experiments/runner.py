"""Per-method experiment runner.

Glue between the air-index schemes and the table/figure reproductions.  The
heavy lifting now lives in the engine layer: schemes are constructed through
the :mod:`repro.air.registry` and workloads execute via
:func:`repro.engine.system.execute_workload`, which is the same code path
:meth:`repro.engine.system.AirSystem.query_batch` uses -- so the harness and
the facade produce identical numbers by construction.  Schemes are built
with ``air.create(...)`` and compared with
:meth:`~repro.engine.system.AirSystem.compare`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.air.base import AirIndexScheme, ClientOptions
from repro.engine.results import MethodRun
from repro.engine.system import execute_workload
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import Query
from repro.network import datasets
from repro.network.graph import RoadNetwork

__all__ = [
    "MethodRun",
    "build_network",
    "run_workload",
]


def build_network(config: ExperimentConfig, name: Optional[str] = None) -> RoadNetwork:
    """Instantiate the configured (scaled) evaluation network."""
    return datasets.load(name or config.network, scale=config.scale, seed=config.seed)


def run_workload(
    scheme: AirIndexScheme,
    queries: Iterable[Query],
    config: ExperimentConfig,
    loss_rate: float = 0.0,
    memory_bound: bool = False,
    loss_seed: int = 0,
) -> MethodRun:
    """Run every query through the scheme's client and collect metrics.

    ``mismatches`` counts queries whose returned distance differs from the
    ground truth -- it should always be zero and is asserted on by the tests.
    """
    options = ClientOptions(
        device=config.device,
        memory_bound=memory_bound,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
    )
    return execute_workload(scheme, queries, options)

