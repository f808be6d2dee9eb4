"""Broadcast serving daemon: a multi-process :class:`AirSystem`.

The paper's serving model is one broadcast server feeding an unbounded
client population; this package is the repo's process-level realization of
it.  An asyncio front end (:class:`~repro.serving.server.AirServer`)
accepts query / batch / fleet / refresh requests over a local socket
protocol (:mod:`repro.serving.protocol`) and dispatches them to a pool of
worker processes.  Workers warm-start in milliseconds: the published index
-- frozen CSR arrays, coordinates and each scheme's serving artifact --
lives in one :class:`~repro.serving.shm.SharedArtifactSegment` that every
worker maps zero-copy, so N workers hold one physical copy of the index.

Operational behaviour the tests pin down:

* bounded per-worker queues with reject-with-retry-after backpressure,
* ``refresh()`` re-publishes a new segment and swaps workers over
  atomically (in-flight requests finish on the cycle they started on),
* crashed workers are detected and respawned without wrong answers,
* shutdown is graceful and idempotent.
"""

from repro.serving.breaker import CircuitBreaker, CircuitOpenError
from repro.serving.client import LoadReport, ServingClient, run_load
from repro.serving.protocol import (
    DeadlineExceeded,
    ProtocolError,
    ServerBusy,
    ServerError,
    read_frame,
    write_frame,
)
from repro.serving.server import AirServer, ServeConfig, ServerHandle
from repro.serving.shm import SegmentIntegrityError, SharedArtifactSegment

__all__ = [
    "AirServer",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceeded",
    "LoadReport",
    "ProtocolError",
    "SegmentIntegrityError",
    "ServeConfig",
    "ServerBusy",
    "ServerError",
    "ServerHandle",
    "ServingClient",
    "SharedArtifactSegment",
    "read_frame",
    "write_frame",
    "run_load",
]
