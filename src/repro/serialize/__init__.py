"""Versioned binary serialization of built index state (the build/serve split).

The paper's broadcast cycle is a *static artifact* of ``(network, scheme,
params)``: the server pre-computes once and then "repeatedly transmits
identical broadcast cycles".  This package makes that artifact explicit so a
serving process never has to re-run the Table 3 pre-computation it already
paid for:

* :mod:`repro.serialize.codec` -- a deterministic, order-preserving tagged
  binary codec for plain Python values (the value model every scheme's built
  state is expressed in), with bulk ``int64``/``float64`` fast paths for the
  large distance tables.
* :mod:`repro.serialize.artifacts` -- :class:`BuildArtifact`, the versioned
  container (magic, format version, payload checksum) produced by
  :meth:`~repro.air.base.AirIndexScheme.artifact` and consumed by
  :meth:`~repro.air.base.AirIndexScheme.from_artifact`.
* :mod:`repro.serialize.graphs` -- plain-value forms of the substrate
  objects artifacts embed: kd/grid
  :class:`~repro.partitioning.base.Partitioning` locators and
  :class:`~repro.broadcast.cycle.BroadcastCycle` layouts.

The hard contract throughout is **bit identity**: a scheme restored from an
artifact must serve queries, refresh, and replay exactly like one built from
scratch.  The codec therefore preserves container kinds (list vs tuple),
dict insertion order, and IEEE-754 doubles exactly; sets are stored sorted
(no behaviour in the system depends on set iteration order).
"""

from repro.serialize.artifacts import (
    ARTIFACT_MAGIC,
    FORMAT_VERSION,
    ArtifactChecksumError,
    ArtifactError,
    ArtifactMismatchError,
    ArtifactVersionError,
    BuildArtifact,
    params_fingerprint,
)
from repro.serialize.codec import decode_value, encode_value
from repro.serialize.graphs import cycle_layout, partitioning_state, restore_partitioning

__all__ = [
    "ARTIFACT_MAGIC",
    "FORMAT_VERSION",
    "ArtifactChecksumError",
    "ArtifactError",
    "ArtifactMismatchError",
    "ArtifactVersionError",
    "BuildArtifact",
    "params_fingerprint",
    "encode_value",
    "decode_value",
    "partitioning_state",
    "restore_partitioning",
    "cycle_layout",
]
