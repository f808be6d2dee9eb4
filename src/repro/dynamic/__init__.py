"""Dynamic networks: edge-weight update streams and incremental maintenance.

The static-network reproduction assumes the broadcast cycle is built once;
this package supplies the time-varying side the ROADMAP's production story
needs:

* update-stream scenario generators (:func:`congestion_ramp`,
  :func:`random_closures`) producing deterministic
  :class:`UpdateStream` s of :class:`~repro.network.delta.EdgeUpdate` es,
* :func:`simulate_update_stream`, which interleaves stream batches with
  device waves through an :class:`~repro.engine.system.AirSystem` so that
  weights change between tune-ins, with every wave checked against Dijkstra
  on the mutated network.

The incremental rebuilds themselves live with their schemes
(:meth:`repro.air.base.AirIndexScheme.shadow_rebuild`) and the
versioned cycle cache with the engine
(:meth:`repro.engine.system.AirSystem.refresh`).
"""

from repro.dynamic.simulate import DynamicFleetRun, StepOutcome, simulate_update_stream
from repro.dynamic.streams import (
    UPDATE_STREAMS,
    UpdateBatch,
    UpdateStream,
    congestion_ramp,
    random_closures,
)
from repro.network.delta import EdgeUpdate, NetworkDelta, WeightChange

__all__ = [
    "DynamicFleetRun",
    "EdgeUpdate",
    "NetworkDelta",
    "StepOutcome",
    "UPDATE_STREAMS",
    "UpdateBatch",
    "UpdateStream",
    "WeightChange",
    "congestion_ramp",
    "random_closures",
    "simulate_update_stream",
]
