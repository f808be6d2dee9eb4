"""Common abstractions shared by every air-index scheme.

A scheme has two halves:

* the **server** half builds the broadcast cycle (``build_cycle``) and
  reports one-off costs (``server_metrics``), and
* the **client** half (``client()``) processes point-to-point queries by
  tuning into a :class:`~repro.broadcast.channel.BroadcastChannel` and
  returning a :class:`QueryResult` with the path and the per-query
  performance factors of paper Section 3.1.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.broadcast.channel import BroadcastChannel, ClientSession
from repro.broadcast.cycle import BroadcastCycle
from repro.broadcast.device import DeviceProfile, J2ME_CLAMSHELL
from repro.broadcast.metrics import ClientMetrics, MemoryTracker, ServerMetrics
from repro.broadcast.packet import SegmentKind
from repro.network.graph import RoadNetwork
from repro.air.records import DEFAULT_LAYOUT, RecordLayout
from repro.serialize.artifacts import ArtifactMismatchError, BuildArtifact
from repro.serialize.codec import decode_value, encode_value
from repro.serialize.graphs import cycle_layout

__all__ = [
    "ClientOptions",
    "MISMATCH_RTOL",
    "QueryResult",
    "AirClient",
    "AirIndexScheme",
    "CpuTimer",
    "is_mismatch",
]

#: Relative tolerance for declaring an on-air answer a mismatch against the
#: ground truth; shared by the engine's workload runner and the fleet
#: simulator so both count mismatches by the same rule.
MISMATCH_RTOL = 1e-6


def is_mismatch(distance: float, truth: Optional[float]) -> bool:
    """Whether an on-air answer disagrees with the ground truth.

    ``truth`` may be ``None`` (no ground truth available), which never
    counts as a mismatch.  The one rule both the engine's workload runner
    and the fleet simulator apply.
    """
    if truth is None:
        return False
    return abs(distance - truth) > MISMATCH_RTOL * max(1.0, truth)


@dataclass(frozen=True)
class ClientOptions:
    """Everything that shapes a client's behaviour, in one object.

    Passed to :meth:`AirIndexScheme.client`, so that every scheme exposes the
    same client factory signature -- the Section 6.1 memory-bound mode is an
    option here rather than a per-scheme constructor overload.
    """

    #: The client hardware (heap size, radio/CPU power, CPU slowdown).
    device: DeviceProfile = J2ME_CLAMSHELL
    #: Section 6.1 super-edge compression (only EB and NR support it).
    memory_bound: bool = False
    #: Bernoulli per-packet loss probability of the default channel.
    loss_rate: float = 0.0
    #: Seed of the default channel's loss/tune-in randomness.
    loss_seed: int = 0
    #: Fixed cycle offset at which clients tune in; random when ``None``.
    tune_in_offset: Optional[int] = None

    def replace(self, **changes) -> "ClientOptions":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)


@dataclass
class QueryResult:
    """Outcome of one on-air shortest path query."""

    source: int
    target: int
    distance: float
    path: List[int] = field(default_factory=list)
    metrics: ClientMetrics = field(default_factory=ClientMetrics)
    #: Regions the client received (empty for full-cycle methods).
    received_regions: List[int] = field(default_factory=list)

    @property
    def found(self) -> bool:
        """``True`` when a finite-distance path was computed."""
        return self.distance != float("inf")


class CpuTimer:
    """Accumulates client-side CPU time, scaled to the device's processor."""

    def __init__(self, device: DeviceProfile) -> None:
        self.device = device
        self.seconds = 0.0
        self._started: Optional[float] = None

    def __enter__(self) -> "CpuTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        if self._started is not None:
            self.seconds += (time.perf_counter() - self._started) * self.device.cpu_slowdown
            self._started = None


class AirIndexScheme(abc.ABC):
    """Server side of a broadcast scheme."""

    #: Short name used in tables (the paper's abbreviations: DJ, EB, NR, ...).
    short_name: str = "?"
    #: Whether the scheme's client implements the Section 6.1 memory-bound
    #: (super-edge compression) mode; only EB and NR do.
    supports_memory_bound: bool = False

    def __init__(self, network: RoadNetwork, layout: RecordLayout = DEFAULT_LAYOUT) -> None:
        self.network = network
        # Compile the network's CSR snapshot up front: every shortest path
        # the scheme runs -- pre-computation sweeps and per-query client
        # searches alike -- then dispatches to the array kernel.  The
        # snapshot is shared (and kept fresh) network-wide, so repeated
        # scheme builds pay nothing.
        network.ensure_csr()
        self.layout = layout
        self._cycle: Optional[BroadcastCycle] = None
        self.precomputation_seconds = 0.0
        #: Incremental-refresh accounting (see :meth:`shadow_rebuild`).
        self.refresh_count = 0
        self.refresh_seconds = 0.0

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def build_cycle(self) -> BroadcastCycle:
        """Pre-compute whatever the scheme needs and lay out the cycle."""

    @property
    def cycle(self) -> BroadcastCycle:
        """The broadcast cycle, building it on first access."""
        if self._cycle is None:
            self._cycle = self.build_cycle()
        return self._cycle

    def shadow_rebuild(self, network: RoadNetwork, delta) -> Optional["AirIndexScheme"]:
        """Build a refreshed *replacement* instance, leaving this one intact.

        ``network`` is the scheme's own (mutated) network and ``delta`` the
        :class:`~repro.network.delta.NetworkDelta` describing what changed
        since the scheme's state was last consistent.  A scheme that can
        apply the delta returns a new instance that shares this one's
        unchanged state, re-computes only the touched parts of the
        pre-computation and re-packs only the touched cycle segments; it must
        be **bit-identical** to a from-scratch build over the mutated network
        (the property suite asserts this).  This instance keeps its
        pre-delta pre-computation and cycle, so clients and channels made
        from it stay consistent while the engine's
        :meth:`~repro.engine.system.AirSystem.refresh` swaps the replacement
        in.  Returning ``None`` -- the default, and what every scheme does
        for structural deltas -- tells the engine to construct a fresh
        scheme instead.

        Implementations bill their work to the replacement's
        :attr:`refresh_count` / :attr:`refresh_seconds` via
        :meth:`_track_refresh`.
        """
        return None

    def _track_refresh(self, started: float) -> "AirIndexScheme":
        """Record one successful incremental refresh; returns ``self``."""
        self.refresh_count += 1
        self.refresh_seconds += time.perf_counter() - started
        return self

    # ------------------------------------------------------------------
    # Build/serve split: versioned artifacts
    # ------------------------------------------------------------------
    def _configure(self, **params: Any) -> None:
        """Apply the scheme's parameter-derived configuration (cheap).

        Every scheme's ``__init__`` is split into *configure* (parameters
        and everything derivable from them in O(1)) and *build*
        (:meth:`_build_state`, the expensive pre-computation), so that
        :meth:`from_artifact` can run configure and then *restore* instead
        of build.  The default stores each parameter as an attribute of the
        same name, which is also what :meth:`artifact` reads back.
        """
        for name, value in params.items():
            setattr(self, name, value)

    def _build_state(self) -> None:
        """Run the scheme's pre-computation from scratch (may be expensive)."""

    def _artifact_state(self) -> Dict[str, Any]:
        """The scheme's built state as plain values; ``{}`` when stateless."""
        return {}

    def _restore_state(self, state: Dict[str, Any]) -> None:
        """Install previously built state (inverse of :meth:`_artifact_state`)."""

    @classmethod
    def _serving_state(cls, state: Dict[str, Any]) -> Dict[str, Any]:
        """``state`` (an :meth:`_artifact_state`) without what only a refresh
        reads; :meth:`_restore_state` must accept the result.  The default
        keeps everything, and :meth:`serving_artifact` then skips the decode.
        """
        return state

    def _artifact_params(self) -> Dict[str, Any]:
        """The full parameter set, read back off the registered dataclass."""
        from repro.air import registry

        info = registry.get_scheme(self.short_name)
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(info.params)
        }

    def artifact(self) -> BuildArtifact:
        """Detach the built state into a versioned :class:`BuildArtifact`.

        The artifact carries the scheme name, the full parameter set, the
        network fingerprint the state was computed over, the scheme state,
        and the broadcast cycle's on-air layout (used as an integrity check
        on restore).  Together with the network, it is everything a process
        needs: ``Scheme.from_artifact(network, artifact)`` answers queries,
        refreshes, and replays bit-identically to this instance.  This is
        the form the artifact store keeps; :meth:`serving_artifact` derives
        the form a serving segment carries, without the state only a
        refresh reads.
        """
        payload = {
            "state": self._artifact_state(),
            "precomputation_seconds": self.precomputation_seconds,
            "cycle": cycle_layout(self.cycle),
            # Record sizing shapes every segment's byte count, so it is part
            # of the built state: restore re-creates the same layout unless
            # the caller explicitly overrides it.
            "layout": dataclasses.asdict(self.layout),
        }
        return BuildArtifact(
            scheme=self.short_name,
            params=self._artifact_params(),
            network_fingerprint=self.network.fingerprint(),
            payload=encode_value(payload),
        )

    @classmethod
    def _artifact_class(cls, artifact: BuildArtifact) -> type:
        """The concrete scheme class ``artifact`` restores into.

        On :class:`AirIndexScheme` itself the registry resolves the name; on
        a concrete class the artifact must name that class.
        """
        from repro.air import registry

        if cls is AirIndexScheme:
            return registry.get_scheme(artifact.scheme).cls
        if artifact.scheme != cls.short_name:
            raise ArtifactMismatchError(
                f"artifact is for scheme {artifact.scheme!r}, not {cls.short_name!r}"
            )
        return cls

    @classmethod
    def serving_artifact(cls, artifact: BuildArtifact) -> BuildArtifact:
        """``artifact``'s serving form: the same artifact minus the state
        only a refresh reads (:meth:`_serving_state`).

        Scheme, parameters and fingerprint are unchanged, and a restore from
        either form answers and replays bit-identically; only the full form
        restores what a refresh reads.  Schemes without refresh-only state
        get ``artifact`` itself back.  Otherwise the payload is decoded over
        a memoryview, so its byte blobs are views, never copies, and only
        what is kept is encoded again.
        """
        target = cls._artifact_class(artifact)
        if target._serving_state.__func__ is AirIndexScheme._serving_state.__func__:
            return artifact
        payload = decode_value(memoryview(artifact.payload), bytes_views=True)
        payload["state"] = target._serving_state(payload["state"])
        return dataclasses.replace(artifact, payload=encode_value(payload))

    @classmethod
    def from_artifact(
        cls,
        network: RoadNetwork,
        artifact: BuildArtifact,
        layout: Optional[RecordLayout] = None,
    ) -> "AirIndexScheme":
        """Reconstruct a serving-ready scheme from a build artifact.

        Callable on a concrete scheme class (the artifact must name it) or
        on :class:`AirIndexScheme` itself, which resolves the class through
        the registry.  ``artifact`` is either form: a store artifact
        (:meth:`artifact`), or its :meth:`serving_artifact`, whose restore
        answers and replays alike but may lack what a refresh reads.  The
        artifact must have been built over a network with
        the same fingerprint as ``network`` -- built state is only valid for
        the exact structure and weights it was computed from.  The record
        layout defaults to the one recorded in the artifact (it shapes every
        on-air byte count); pass ``layout`` only to override it knowingly.
        The broadcast cycle is re-laid from the restored state (layout is
        cheap relative to pre-computation) and verified against the cycle
        layout recorded at build time, so silent drift between writer and
        reader code raises instead of serving a subtly different cycle.
        """
        target = cls._artifact_class(artifact)
        fingerprint = network.fingerprint()
        if artifact.network_fingerprint != fingerprint:
            raise ArtifactMismatchError(
                f"artifact was built over network {artifact.network_fingerprint}, "
                f"but the given network fingerprints as {fingerprint}"
            )
        if type(artifact.payload) is bytes:
            # An owned payload hands its byte blobs (NR's and EB's labels)
            # over as zero-copy views into it; a mapped one (a shared
            # segment) is never referenced past the restore, so it copies.
            payload = decode_value(memoryview(artifact.payload), bytes_views=True)
        else:
            payload = decode_value(artifact.payload)
        if layout is None:
            layout = RecordLayout(**payload["layout"])
        scheme = object.__new__(target)
        AirIndexScheme.__init__(scheme, network, layout)
        scheme._configure(**dict(artifact.params))
        scheme._restore_state(payload["state"])
        scheme.precomputation_seconds = payload["precomputation_seconds"]
        scheme._cycle = scheme.build_cycle()
        # The recorded cycle layout was laid under the build-time record
        # sizing; with an explicitly overridden layout the byte counts are
        # *expected* to differ, so drift detection only applies when the
        # effective layout is the recorded one.
        if dataclasses.asdict(layout) == payload["layout"]:
            rebuilt = cycle_layout(scheme._cycle)
            if rebuilt != payload["cycle"]:
                raise ArtifactMismatchError(
                    f"restored {artifact.scheme} state re-lays a different cycle "
                    "than the one recorded at build time (format drift without a "
                    "version bump?)"
                )
        return scheme

    def server_metrics(self) -> ServerMetrics:
        """Cycle size and pre-computation cost (paper Tables 1 and 3)."""
        cycle = self.cycle
        composition = cycle.composition()
        data_kinds = (
            SegmentKind.NETWORK_DATA.value,
            SegmentKind.REGION_CROSS_BORDER.value,
            SegmentKind.REGION_LOCAL.value,
        )
        data_packets = sum(composition.get(kind, 0) for kind in data_kinds)
        return ServerMetrics(
            scheme=self.short_name,
            cycle_packets=cycle.total_packets,
            cycle_bytes=cycle.total_bytes,
            precomputation_seconds=self.precomputation_seconds,
            data_packets=data_packets,
            index_packets=cycle.total_packets - data_packets,
            refreshes=self.refresh_count,
            refresh_seconds=self.refresh_seconds,
        )

    def channel(self, loss_rate: float = 0.0, seed: int = 0) -> BroadcastChannel:
        """A broadcast channel repeatedly transmitting this scheme's cycle."""
        return BroadcastChannel(self.cycle, loss_rate=loss_rate, seed=seed)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def client(
        self,
        device: Optional[DeviceProfile] = None,
        options: Optional[ClientOptions] = None,
        *,
        memory_bound: Optional[bool] = None,
        loss_rate: Optional[float] = None,
        loss_seed: Optional[int] = None,
        tune_in_offset: Optional[int] = None,
    ) -> "AirClient":
        """Create a query processor bound to this scheme's broadcast content.

        The signature is uniform across every scheme: pass a full
        :class:`ClientOptions`, or override individual fields by keyword.
        Asking for the memory-bound mode on a scheme that does not support it
        raises ``ValueError`` instead of silently ignoring the request.
        """
        options = options or ClientOptions()
        overrides = {
            key: value
            for key, value in (
                ("device", device),
                ("memory_bound", memory_bound),
                ("loss_rate", loss_rate),
                ("loss_seed", loss_seed),
                ("tune_in_offset", tune_in_offset),
            )
            if value is not None
        }
        if overrides:
            options = options.replace(**overrides)
        if options.memory_bound and not self.supports_memory_bound:
            raise ValueError(
                f"scheme {self.short_name!r} does not support the memory-bound "
                "client mode (only EB and NR implement Section 6.1)"
            )
        return self._make_client(options)

    @abc.abstractmethod
    def _make_client(self, options: ClientOptions) -> "AirClient":
        """Scheme-specific client construction from resolved options."""


class AirClient(abc.ABC):
    """Client side of a broadcast scheme."""

    def __init__(
        self,
        scheme: AirIndexScheme,
        device: Optional[DeviceProfile] = None,
        options: Optional[ClientOptions] = None,
    ) -> None:
        if options is None:
            options = ClientOptions(device=device or J2ME_CLAMSHELL)
        elif device is not None:
            options = options.replace(device=device)
        self.scheme = scheme
        self.options = options
        self.device = options.device

    @abc.abstractmethod
    def process(
        self, source: int, target: int, session: ClientSession, memory: MemoryTracker
    ) -> QueryResult:
        """Scheme-specific query protocol over an open tuning session."""

    def query(
        self,
        source: int,
        target: int,
        channel: Optional[BroadcastChannel] = None,
        tune_in_offset: Optional[int] = None,
        session: Optional[ClientSession] = None,
    ) -> QueryResult:
        """Process one query end to end and fill in the client metrics.

        Parameters
        ----------
        channel:
            The broadcast channel to tune into.  Defaults to a channel
            carrying this scheme's cycle with the client options' loss rate
            and seed (loss-free under the default options).
        tune_in_offset:
            Cycle offset at which the client tunes in; when omitted, falls
            back to the client options' offset, and finally to a random (but
            deterministic per channel) one -- queries are posed at arbitrary
            moments, exactly as in the paper's evaluation.
        session:
            A pre-opened tuning session.  Used by the engine's batch runner
            to draw sessions in a deterministic order before fanning queries
            out to worker threads; mutually exclusive with ``channel``.
        """
        if session is None:
            if channel is None:
                channel = self.scheme.channel(
                    loss_rate=self.options.loss_rate, seed=self.options.loss_seed
                )
            if tune_in_offset is None:
                tune_in_offset = self.options.tune_in_offset
            session = channel.session(tune_in_offset)
        elif channel is not None:
            raise ValueError("pass either channel or session, not both")
        memory = MemoryTracker()
        result = self.process(source, target, session, memory)
        result.metrics.tuning_time_packets = session.tuning_packets
        result.metrics.access_latency_packets = session.elapsed_packets
        result.metrics.peak_memory_bytes = max(
            result.metrics.peak_memory_bytes, memory.peak_bytes
        )
        result.metrics.lost_packets = session.lost_packets
        return result
