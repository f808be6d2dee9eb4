"""The :class:`AirSystem` engine facade.

One object owning a road network and every broadcast scheme built over it.
It is the production-facing entry point the ROADMAP asks for: schemes are
constructed through the registry, built cycles are memoized by
``(scheme, params, network fingerprint)`` so repeated experiments never
rebuild, and workloads run in batches -- optionally across a thread pool of
independent channel sessions::

    from repro.engine import AirSystem
    from repro.experiments import ExperimentConfig

    system = AirSystem.from_config(ExperimentConfig(network="germany", scale=0.02))
    run = system.query_batch("NR", workload, concurrency=4)
    table = system.compare(["NR", "EB", "DJ"], workload, loss_rate=0.05)

Determinism: a batch pre-draws one tuning session per query from a fresh,
seeded channel *in workload order* before any query is processed, so the
results are bit-identical to a sequential per-query loop regardless of the
``concurrency`` setting (CPU seconds excepted -- those are measured wall
clock).
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.air import registry
from repro.air.base import AirIndexScheme, ClientOptions, QueryResult, is_mismatch
from repro.broadcast.channel import BroadcastChannel
from repro.concurrency import run_indexed
from repro.engine.results import MethodRun, RefreshReport, WarmStartReport
from repro.faults import runtime as faults
from repro.fleet.devices import DeviceSpec
from repro.fleet.results import FleetRun
from repro.fleet.simulator import simulate_fleet as _simulate_fleet
from repro.network.graph import RoadNetwork
from repro.serialize.artifacts import ArtifactError, BuildArtifact
from repro.store import ArtifactStore

__all__ = [
    "AirSystem",
    "AsyncRefresh",
    "CacheInfo",
    "RefreshReport",
    "WarmStartReport",
    "execute_workload",
]


class AsyncRefresh:
    """Handle on one in-flight :meth:`AirSystem.refresh_async` run.

    The worker thread builds refreshed replacement schemes into a shadow set
    and atomically swaps them into the system's cache when every one is
    ready; until then the system keeps serving queries from the pre-delta
    entries.  :meth:`wait` joins the run and returns its
    :class:`RefreshReport` (re-raising whatever the worker raised).
    """

    def __init__(self) -> None:
        self._report: Optional[RefreshReport] = None
        self._error: Optional[BaseException] = None
        self._finished = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @classmethod
    def completed(cls, report: RefreshReport) -> "AsyncRefresh":
        """An already-finished handle (the no-pending-delta fast path)."""
        handle = cls()
        handle._report = report
        handle._finished.set()
        return handle

    def _start(self, work) -> "AsyncRefresh":
        def run() -> None:
            try:
                self._report = work()
            except BaseException as exc:  # re-raised from wait()
                self._error = exc
            finally:
                self._finished.set()

        self._thread = threading.Thread(
            target=run, name="air-refresh", daemon=True
        )
        self._thread.start()
        return self

    @property
    def done(self) -> bool:
        """Whether the refresh has finished (successfully or not)."""
        return self._finished.is_set()

    def wait(self, timeout: Optional[float] = None) -> RefreshReport:
        """Block until the swap happened; returns the refresh report.

        Raises :class:`TimeoutError` if the refresh is still running after
        ``timeout`` seconds, and re-raises the worker's exception if the
        refresh failed.
        """
        if not self._finished.wait(timeout):
            raise TimeoutError("refresh_async() still running")
        if self._error is not None:
            raise self._error
        assert self._report is not None
        return self._report


@dataclass(frozen=True)
class CacheInfo:
    """Statistics of the system's cycle cache and the network's CSR snapshot."""

    hits: int
    misses: int
    entries: int
    #: Cache entries a refresh replaced with a scheme built from the delta
    #: (``shadow_rebuild``, dynamic networks) versus reconstructed from
    #: scratch during a refresh.
    incremental_rebuilds: int = 0
    full_rebuilds: int = 0
    #: CSR snapshot compilations of the system's network (see
    #: :meth:`~repro.network.graph.RoadNetwork.ensure_csr`): every scheme
    #: build shares one snapshot, so this normally stays at 1 per network
    #: structure.
    snapshot_builds: int = 0
    #: In-place CSR weight patches applied by dynamic updates -- each one
    #: avoided a full snapshot recompile.
    snapshot_patches: int = 0
    #: Memory-cache misses of *this system* served by restoring a stored
    #: artifact instead of building from scratch (``warm_start`` loads are
    #: not misses and are not counted here).
    disk_restores: int = 0
    #: Disk-tier (artifact store) statistics; all zero without a store.
    #: ``disk_hits`` counts store reads that returned an artifact (including
    #: ``warm_start`` and other systems sharing the store instance),
    #: ``disk_misses`` the reads that found nothing servable.
    disk_hits: int = 0
    disk_misses: int = 0
    disk_writes: int = 0
    disk_evictions: int = 0
    disk_quarantined: int = 0
    disk_entries: int = 0
    disk_bytes: int = 0

    @property
    def builds(self) -> int:
        """Number of from-scratch scheme/cycle constructions.

        Cold cache misses that actually built (misses served by a disk-tier
        restore are not constructions) plus the full rebuilds ``refresh()``
        performed for schemes that could not apply a delta incrementally;
        replacements built from a delta are not constructions either and
        are counted separately (:attr:`incremental_rebuilds`).
        """
        return self.misses - self.disk_restores + self.full_rebuilds


def _as_query(item: Any) -> Tuple[int, int, Optional[float]]:
    """Normalize a workload item to ``(source, target, true_distance)``.

    Accepts :class:`~repro.experiments.workloads.Query`-like objects (duck
    typed on ``source``/``target``) and plain ``(source, target)`` pairs;
    without a ground-truth distance the mismatch check is skipped.
    """
    if hasattr(item, "source") and hasattr(item, "target"):
        return item.source, item.target, getattr(item, "true_distance", None)
    source, target = item
    return source, target, None


def execute_workload(
    scheme: AirIndexScheme,
    queries: Iterable[Any],
    options: Optional[ClientOptions] = None,
    *,
    channel: Optional[BroadcastChannel] = None,
    concurrency: int = 1,
    chunk_size: Optional[int] = None,
) -> MethodRun:
    """Run a workload through a scheme's client and aggregate the metrics.

    This is the single implementation behind both the legacy
    :func:`repro.experiments.runner.run_workload` and
    :meth:`AirSystem.query_batch`, which is what makes their results
    identical by construction.

    Sessions are drawn from the channel sequentially in workload order, so
    tune-in offsets and packet-loss draws do not depend on ``concurrency``;
    queries are then processed in chunks, in parallel when ``concurrency > 1``
    (each session is independent and the schemes' shared state is read-only).
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    options = options or ClientOptions()
    items = [_as_query(item) for item in queries]
    if channel is None:
        channel = scheme.channel(loss_rate=options.loss_rate, seed=options.loss_seed)
    client = scheme.client(options=options)
    sessions = [channel.session(options.tune_in_offset) for _ in items]

    def process(index: int) -> QueryResult:
        source, target, _ = items[index]
        return client.query(source, target, session=sessions[index])

    # run_indexed never spins up a pool for an empty or single-item workload.
    results = run_indexed(process, len(items), concurrency, chunk_size)

    run = MethodRun(method=scheme.short_name, server=scheme.server_metrics())
    for (source, target, truth), result in zip(items, results):
        run.per_query.append(result.metrics)
        if is_mismatch(result.distance, truth):
            run.mismatches += 1
    return run


class AirSystem:
    """A network plus a cache of schemes built (and cycles laid out) over it.

    Parameters
    ----------
    network:
        The road network every scheme is built over.
    config:
        Optional configuration object (typically an
        :class:`~repro.experiments.config.ExperimentConfig`).  When given, it
        supplies per-scheme default parameters through the registry's
        ``config_map`` and the default client device.
    default_options:
        Base :class:`ClientOptions` for every client the system creates;
        defaults to ``ClientOptions(device=config.device)`` when a
        configuration is given.
    store:
        Optional disk tier: an :class:`~repro.store.ArtifactStore` (or a
        path, wrapped into one).  With a store attached the cycle cache is
        two-tiered -- a memory miss first tries to restore the scheme from
        a stored :class:`~repro.serialize.BuildArtifact` (bit-identical to
        a scratch build, orders of magnitude cheaper), and every scratch
        build publishes its artifact so the next process (or the next
        restart) warm-starts instead of re-running Table 3.
    """

    def __init__(
        self,
        network: RoadNetwork,
        config: Any = None,
        default_options: Optional[ClientOptions] = None,
        store: Optional[Any] = None,
    ) -> None:
        self.network = network
        self.config = config
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store: Optional[ArtifactStore] = store
        if default_options is None:
            device = getattr(config, "device", None)
            default_options = ClientOptions(device=device) if device else ClientOptions()
        self.default_options = default_options
        self._schemes: Dict[Tuple, AirIndexScheme] = {}
        self._channels: Dict[Tuple, BroadcastChannel] = {}
        self._hits = 0
        self._misses = 0
        self._disk_restores = 0
        self._incremental_rebuilds = 0
        self._full_rebuilds = 0
        #: Fingerprint -> the fingerprint it superseded (set by refresh()).
        self._lineage: Dict[str, str] = {}
        #: Stale-while-refreshing: while a ``refresh_async()`` is in flight,
        #: maps the *new* fingerprint to the superseded one so lookups keep
        #: serving the pre-delta entries instead of rebuilding from scratch.
        self._refresh_alias: Dict[str, str] = {}
        self._async_refresh: Optional[AsyncRefresh] = None
        #: Serializes cache-dict mutations between the serving thread and a
        #: ``refresh_async()`` worker's atomic swap.
        self._swap_lock = threading.Lock()
        #: Artifacts shared by the consumers inside :meth:`publication`:
        #: cache key -> ``(scheme, artifact)``.
        self._artifacts: Dict[Tuple, Tuple[AirIndexScheme, BuildArtifact]] = {}
        self._publications = 0
        # The network's own delta tracking is the source of truth for
        # refresh(); constructors (generators, datasets, copy()) hand over
        # networks with a clean baseline, and the system deliberately never
        # clears a delta it did not consume -- another AirSystem sharing the
        # network may still need it.
        self._clean_fingerprint = self.network.fingerprint()

    @classmethod
    def from_config(
        cls,
        config: Any,
        network_name: Optional[str] = None,
        store: Optional[Any] = None,
    ) -> "AirSystem":
        """Build the configured (scaled) evaluation network and wrap it."""
        from repro.network import datasets

        network = datasets.load(
            network_name or config.network, scale=config.scale, seed=config.seed
        )
        return cls(network, config=config, store=store)

    @classmethod
    def from_columnar(
        cls,
        table_dir: Any,
        config: Any = None,
        store: Optional[Any] = None,
        name: Optional[str] = None,
    ) -> "AirSystem":
        """Serve an imported columnar edge table (see ``repro ingest``).

        The CSR snapshot is compiled straight from the on-disk chunks and
        :meth:`~repro.network.graph.RoadNetwork.from_table` serves the
        network API off it, so a continental import serves in the arrays'
        footprint.  The table's manifest fingerprint doubles as the network
        fingerprint, which keeps store keys identical to a network built
        edge by edge from the same nodes and edges.
        """
        from repro.network.ingest import open_table

        network = RoadNetwork.from_table(open_table(table_dir), name=name)
        return cls(network, config=config, store=store)

    # ------------------------------------------------------------------
    # Scheme cache
    # ------------------------------------------------------------------
    def _resolve_params(self, name: str, params: Mapping[str, Any]) -> Dict[str, Any]:
        resolved: Dict[str, Any] = {}
        if self.config is not None:
            resolved.update(registry.params_from_config(name, self.config))
        resolved.update(params)
        # Round-trip through the dataclass so the cache key carries every
        # field (defaults included) and unknown names fail fast.
        info = registry.get_scheme(name)
        return dataclasses.asdict(info.make_params(**resolved))

    @property
    def _fingerprint(self) -> str:
        """The network's current structural digest.

        Read on every cache lookup (memoized inside :class:`RoadNetwork`, so
        this is a dictionary read while the network is unchanged): mutating
        the network -- adding or removing an edge -- changes the digest,
        which misses every cached key and forces a rebuild instead of
        serving a stale cycle.
        """
        return self.network.fingerprint()

    def scheme(self, name: str, **params: Any) -> AirIndexScheme:
        """The (cached) scheme instance for ``name`` with the given parameters.

        On a memory miss with a store attached, the disk tier is consulted
        first: a stored artifact restores in milliseconds and is
        bit-identical to a scratch build.  Only when that also misses is the
        scheme constructed through the registry (cycle built immediately),
        and its artifact is then published to the store.  Either way,
        everything returned by this method is ready to serve queries without
        further pre-computation.
        """
        name = registry.canonical_name(name)
        resolved = self._resolve_params(name, params)
        return self._scheme_entry(name, resolved)[0]

    def _scheme_entry(
        self, name: str, resolved: Mapping[str, Any]
    ) -> Tuple[AirIndexScheme, Tuple]:
        """The cached scheme plus the cache key it is (or will be) served under.

        While a :meth:`refresh_async` is in flight, a lookup under the new
        fingerprint falls back to the superseded fingerprint's entry
        (stale-while-refreshing): the pre-delta scheme keeps serving, keyed
        as it is, and is *not* re-inserted under the new key -- the worker's
        atomic swap must find that slot empty to install the refreshed
        replacement.  The returned key is the *effective* one (the alias key
        on a stale hit), so per-scheme channels built during the refresh
        window are keyed to the superseded fingerprint and dropped with it.
        """
        key = self._cache_key(name, resolved)
        with self._swap_lock:
            scheme = self._schemes.get(key)
            if scheme is None:
                parent = self._refresh_alias.get(key[2])
                if parent is not None:
                    alias_key = (key[0], key[1], parent)
                    scheme = self._schemes.get(alias_key)
                    if scheme is not None:
                        key = alias_key
        if scheme is not None:
            self._hits += 1
            return scheme, key
        self._misses += 1
        scheme = self._restore_from_store(name, resolved)
        if scheme is None:
            scheme = registry.create(name, self.network, **resolved)
            scheme.cycle  # build (and thereby cache) the broadcast cycle now
            self._publish_to_store(scheme, key)
        else:
            self._disk_restores += 1
        with self._swap_lock:
            self._schemes[key] = scheme
        return scheme, key

    def _cache_key(self, name: str, resolved: Mapping[str, Any]) -> Tuple:
        """The memory-cache key shared by every lookup and warm-start path."""
        return (name, tuple(sorted(resolved.items())), self._fingerprint)

    def _restore_from_store(
        self, name: str, resolved: Mapping[str, Any]
    ) -> Optional[AirIndexScheme]:
        """Try the disk tier for an already-built scheme; ``None`` on miss.

        The disk tier is a cache: *anything* going wrong here -- a stored
        artifact whose payload schema drifted without a version bump (shows
        up as codec/shape errors out of ``_restore_state``), a mismatch
        slipping past the store's own validation, or plain I/O trouble --
        degrades to a miss, and the caller rebuilds from scratch (which
        also re-publishes a good artifact).
        """
        if self.store is None:
            return None
        try:
            artifact = self.store.get(name, resolved, self._fingerprint)
        except OSError:
            return None
        if artifact is None:
            return None
        try:
            return AirIndexScheme.from_artifact(self.network, artifact)
        except (ArtifactError, KeyError, IndexError, TypeError, ValueError, AttributeError):
            return None

    def _publish_to_store(self, scheme: AirIndexScheme, key: Tuple) -> bool:
        """Best-effort artifact publication; never breaks the serving path.

        A full disk or a read-only store directory must not fail a
        ``scheme()`` call whose in-memory build already succeeded -- the
        write is retried naturally the next time a cold build happens.
        """
        if self.store is None:
            return False
        try:
            self.store.put(self._artifact_of(key, scheme))
        except OSError:
            return False
        return True

    def artifact(self, name: str, **params: Any) -> BuildArtifact:
        """The scheme's :class:`~repro.serialize.BuildArtifact`.

        Inside :meth:`publication` each cache entry's artifact is encoded
        once and handed to every consumer -- the store write of its build
        or refresh, and the caller here; outside one, every call encodes
        afresh.
        """
        name = registry.canonical_name(name)
        scheme = self.scheme(name, **params)
        return self._artifact_of(
            self._cache_key(name, self._resolve_params(name, params)), scheme
        )

    @contextlib.contextmanager
    def publication(self):
        """Share one encoded artifact per scheme across everything inside.

        A publication -- a build or refresh whose artifacts go to the store
        and then to a serving segment -- encodes each scheme once.  The
        artifacts are released when the outermost publication ends, so a
        long-lived system does not hold an encoded copy of every scheme, and
        a refresh drops those of the fingerprints it supersedes, so an
        artifact is never one encoded before the refresh.
        """
        with self._swap_lock:
            self._publications += 1
        try:
            yield self
        finally:
            with self._swap_lock:
                self._publications -= 1
                if not self._publications:
                    self._artifacts.clear()

    def _artifact_of(self, key: Tuple, scheme: AirIndexScheme) -> BuildArtifact:
        """``scheme``'s artifact: the shared one when ``key`` holds it."""
        with self._swap_lock:
            cached = self._artifacts.get(key)
        if cached is not None and cached[0] is scheme:
            return cached[1]
        artifact = scheme.artifact()
        with self._swap_lock:
            if self._publications:
                self._artifacts[key] = (scheme, artifact)
        return artifact

    def _drop_artifacts(self, current: str) -> None:
        """Forget every artifact encoded for a fingerprint other than
        ``current`` (callers hold ``_swap_lock``)."""
        for key in [key for key in self._artifacts if key[2] != current]:
            del self._artifacts[key]

    def warm_start(self, names: Optional[Sequence[str]] = None) -> WarmStartReport:
        """Populate the memory cache from the disk tier without building.

        The restart path of a production server: instead of paying the full
        Table 3 pre-computation per scheme on every deploy, restore every
        stored artifact for the current network (under the system's resolved
        default parameters).  ``names`` defaults to every registered scheme;
        schemes without a valid stored artifact are reported ``missing`` and
        left to build lazily (publishing their artifact) on first use.
        Requires a store.
        """
        if self.store is None:
            raise ValueError("warm_start() requires an AirSystem with a store")
        started = time.perf_counter()
        loaded: List[str] = []
        missing: List[str] = []
        for name in names if names is not None else registry.available_schemes():
            name = registry.canonical_name(name)
            resolved = self._resolve_params(name, {})
            key = self._cache_key(name, resolved)
            with self._swap_lock:
                cached = key in self._schemes
            if not cached:
                scheme = self._restore_from_store(name, resolved)
                if scheme is None:
                    missing.append(name)
                    continue
                with self._swap_lock:
                    self._schemes.setdefault(key, scheme)
            loaded.append(name)
        return WarmStartReport(
            loaded=tuple(loaded),
            missing=tuple(missing),
            seconds=time.perf_counter() - started,
        )

    def cache_info(self) -> CacheInfo:
        """Hit/miss/entry counts of the cycle cache, plus snapshot stats."""
        snapshot = self.network.csr_stats()
        disk = self.store.stats() if self.store is not None else {}
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            entries=len(self._schemes),
            incremental_rebuilds=self._incremental_rebuilds,
            full_rebuilds=self._full_rebuilds,
            snapshot_builds=snapshot["builds"],
            snapshot_patches=snapshot["patches"],
            disk_restores=self._disk_restores,
            disk_hits=disk.get("hits", 0),
            disk_misses=disk.get("misses", 0),
            disk_writes=disk.get("writes", 0),
            disk_evictions=disk.get("evictions", 0),
            disk_quarantined=disk.get("quarantined", 0),
            disk_entries=disk.get("entries", 0),
            disk_bytes=disk.get("bytes", 0),
        )

    def clear_cache(self) -> None:
        """Drop every cached scheme, cycle and channel.

        Raises ``RuntimeError`` while a :meth:`refresh_async` is in flight.
        """
        self._check_no_async_refresh()
        with self._swap_lock:
            self._schemes.clear()
            self._channels.clear()
            self._artifacts.clear()
        self._hits = 0
        self._misses = 0
        self._disk_restores = 0
        self._incremental_rebuilds = 0
        self._full_rebuilds = 0

    def prune_cache(self) -> int:
        """Drop cache entries built for superseded network structures.

        In-place mutation keeps older-fingerprint entries around so that
        reverting a mutation hits the original entry again, but a long-lived
        system in a mutate/re-query loop would accumulate one dead cycle per
        structure.  This evicts every memory entry whose fingerprint differs
        from the network's current one, and -- when a store is attached --
        every *disk* entry built over a fingerprint this system superseded
        (the :meth:`lineage` chain; entries for unrelated networks sharing
        the store are deliberately left alone).  Returns the total number of
        entries dropped across both tiers.  Raises ``RuntimeError`` while a
        :meth:`refresh_async` is in flight: its superseded entries are
        serving until the swap.
        """
        self._check_no_async_refresh()
        current = self._fingerprint
        with self._swap_lock:
            stale_schemes = [key for key in self._schemes if key[2] != current]
            for key in stale_schemes:
                del self._schemes[key]
            stale_channels = [key for key in self._channels if key[2] != current]
            for key in stale_channels:
                del self._channels[key]
        dropped = len(stale_schemes) + len(stale_channels)
        if self.store is not None:
            # Every fingerprint ever refreshed *from* is dead -- unless the
            # network was reverted back onto it and it is current again.
            superseded = set(self._lineage.values()) - {current}
            if superseded:
                try:
                    dropped += self.store.prune(superseded)
                except OSError:
                    pass  # cache-tier housekeeping must not break serving
        return dropped

    # ------------------------------------------------------------------
    # Dynamic networks: versioned refresh
    # ------------------------------------------------------------------
    def apply_updates(self, updates: Iterable[Any]) -> RefreshReport:
        """Apply a batch of edge-weight updates and refresh the cache.

        Equivalent to ``system.network.apply_updates(updates)`` followed by
        :meth:`refresh` -- the one-call path a dynamic workload uses between
        device waves.
        """
        self._check_no_async_refresh()
        self.network.apply_updates(updates)
        return self.refresh()

    def _check_no_async_refresh(self) -> None:
        """Refuse to mutate, refresh or prune while an async refresh is in
        flight.

        The worker owns the pending delta and the superseded cache entries
        for the duration of its run; letting a second refresh (or a new
        mutation batch) in before the swap would splice two deltas together,
        and pruning would evict the entries that serve until the swap.
        Callers ``wait()`` on the handle first.
        """
        handle = self._async_refresh
        if handle is not None and not handle.done:
            raise RuntimeError(
                "a refresh_async() is still in flight; wait() on its handle "
                "before applying further updates, refreshing again or "
                "pruning the cache"
            )

    def refresh(self) -> RefreshReport:
        """Bring every cached cycle up to date with the mutated network.

        Reads the network's pending delta and, for each entry built for the
        superseded structure, builds a *replacement* scheme -- through the
        scheme's :meth:`~repro.air.base.AirIndexScheme.shadow_rebuild`
        (weight deltas on schemes that support it) or a full reconstruction
        -- then swaps every replacement in under one lock acquisition,
        re-keyed under the new fingerprint, and records the fingerprint
        lineage (:meth:`lineage`).  Until the swap, lookups under the new
        fingerprint keep serving the superseded entries (see
        :meth:`_scheme_entry`); channels built for any superseded
        fingerprint are dropped by the swap.  Replaced schemes are never
        mutated, so a client or channel obtained before the refresh keeps
        the pre-delta pre-computation and cycle it was made from.

        The refresh is failure-atomic: one that fails before its swap (the
        ``engine.refresh.fail`` fault point, a failed scratch build) leaves
        the cache, the pending delta and the lineage exactly as they were,
        and the next refresh rebuilds from the *cumulative* updates.  A
        scheme whose ``shadow_rebuild`` raises is rebuilt from scratch, and
        the error is named in ``RefreshReport.shadow_errors``.

        In-place mutations *without* a refresh stay safe -- the fingerprint
        miss forces a full rebuild on the next ``scheme()`` call -- but pay
        a from-scratch build per scheme; ``refresh()`` is what makes a
        mutate/serve loop cheap.

        The incremental path trusts the network's delta to fully explain the
        fingerprint transition, which holds as long as every mutation since
        the last refresh went through the network's mutating methods.  If
        the fingerprint moved while the delta records no changes (someone
        called ``clear_delta()`` externally), every entry takes the
        full-rebuild path instead; a *partial* external clear followed by
        further updates is not detectable -- do not clear a delta an
        :class:`AirSystem` has not consumed.
        """
        report, work = self._prepare_refresh()
        return report if work is None else work()

    def refresh_async(self) -> AsyncRefresh:
        """:meth:`refresh` on a background thread: queries never wait on it.

        The same refresh runs on the handle's thread while the system keeps
        answering queries from the superseded entries (a lookup under the
        new fingerprint transparently falls back to them for the duration;
        see :meth:`_scheme_entry`).  The swap is one lock acquisition:
        queries observe either the complete old state or the complete new
        state, never a mixture, and never block for longer than the swap's
        dictionary updates.

        At most one refresh may be in flight: until :meth:`wait` returns,
        further :meth:`refresh`/:meth:`refresh_async`/:meth:`apply_updates`
        calls (and :meth:`prune_cache`/:meth:`clear_cache`) raise
        ``RuntimeError`` (apply updates to the *network* only through those
        methods, so the guard is airtight in practice).  Returns an
        :class:`AsyncRefresh` handle; the swap has happened exactly when
        ``handle.done`` turns true.
        """
        report, work = self._prepare_refresh()
        if work is None:
            return AsyncRefresh.completed(report)
        handle = AsyncRefresh()
        self._async_refresh = handle
        return handle._start(work)

    def _prepare_refresh(
        self,
    ) -> Tuple[Optional[RefreshReport], Optional[Callable[[], RefreshReport]]]:
        """Snapshot the pending delta: ``(report, None)`` when there is
        nothing to refresh, else ``(None, work)`` with the refresh to run.

        The stale-while-refreshing alias is installed here, before ``work``
        runs on any thread, so no lookup can miss between the two.
        """
        self._check_no_async_refresh()
        started = time.perf_counter()
        delta = self.network.pending_delta()
        parent = self._clean_fingerprint
        current = self.network.fingerprint()
        if current == parent and delta.empty:
            return (
                RefreshReport(
                    parent_fingerprint=parent,
                    fingerprint=current,
                    structural=False,
                    num_changes=0,
                    num_dirty_nodes=0,
                    seconds=time.perf_counter() - started,
                ),
                None,
            )
        if current != parent:
            self._refresh_alias[current] = parent
        return None, lambda: self._refresh(parent, current, delta, started)

    def _refresh(
        self, parent: str, current: str, delta: Any, started: float
    ) -> RefreshReport:
        """The one refresh: build every replacement, swap them in once."""
        try:
            # Chaos hook: a plan targeting ``engine.refresh.fail`` aborts the
            # rebuild here, before any shadow exists -- the exact failure the
            # serving daemon's degraded mode must absorb.  On this (or any)
            # failure the network delta stays uncleared, so the next refresh
            # rebuilds from the *cumulative* updates.
            faults.fail_if("engine.refresh.fail")
            incremental: List[str] = []
            rebuilt: List[str] = []
            dropped: List[str] = []
            shadow_errors: List[Tuple[str, str]] = []
            # The incremental path is only sound when the delta fully
            # explains the fingerprint transition.  A moved fingerprint with
            # *no* recorded changes means the tracking was cleared
            # externally -- rebuild rather than re-key stale state as fresh.
            trust_delta = not delta.structural and bool(delta.changes)
            with self._swap_lock:
                entries = [
                    (key, self._schemes[key])
                    for key in self._schemes
                    if key[2] == parent and parent != current
                ]

            replacements: List[Tuple[Tuple, Tuple, AirIndexScheme, bool]] = []
            for key, scheme in entries:
                name, params_items, _ = key
                replacement: Optional[AirIndexScheme] = None
                if trust_delta:
                    try:
                        replacement = scheme.shadow_rebuild(self.network, delta)
                    except Exception as error:
                        # A failed shadow refresh must not take serving down:
                        # fall back to the from-scratch build below, and say
                        # why in the report.
                        shadow_errors.append((name, f"{type(error).__name__}: {error}"))
                        replacement = None
                was_incremental = replacement is not None
                if replacement is None:
                    replacement = registry.create(
                        name, self.network, **dict(params_items)
                    )
                    replacement.cycle  # build the refreshed cycle off-line
                replacements.append(
                    (key, (name, params_items, current), replacement, was_incremental)
                )

            with self._swap_lock:
                for old_key, new_key, replacement, was_incremental in replacements:
                    self._schemes.pop(old_key, None)
                    if new_key in self._schemes:
                        # A build landed under the new key while we were
                        # refreshing (alias hits never insert there, but a
                        # scheme with no pre-delta entry builds from scratch
                        # directly under the new fingerprint).  Keep it.
                        dropped.append(old_key[0])
                        continue
                    self._schemes[new_key] = replacement
                    if was_incremental:
                        incremental.append(old_key[0])
                        self._incremental_rebuilds += 1
                    else:
                        rebuilt.append(old_key[0])
                        self._full_rebuilds += 1
                for key in [key for key in self._channels if key[2] != current]:
                    del self._channels[key]
                self._drop_artifacts(current)
                if current != parent:
                    self._lineage[current] = parent
                self._clean_fingerprint = current
                self.network.clear_delta()

            # Store publication is slow I/O: do it after the swap, outside
            # the lock, only for replacements that actually serve.  The
            # refreshed state belongs to the new fingerprint; the old
            # fingerprint's stored artifact is now superseded (see
            # prune_cache) and must never be served for this network.
            artifacts_stored = 0
            for _, new_key, replacement, _ in replacements:
                if self._schemes.get(new_key) is replacement:
                    if self._publish_to_store(replacement, new_key):
                        artifacts_stored += 1

            return RefreshReport(
                parent_fingerprint=parent,
                fingerprint=current,
                structural=delta.structural,
                num_changes=len(delta.changes),
                num_dirty_nodes=len(delta.dirty_nodes),
                incremental=tuple(incremental),
                rebuilt=tuple(rebuilt),
                dropped=tuple(dropped),
                seconds=time.perf_counter() - started,
                artifacts_stored=artifacts_stored,
                shadow_errors=tuple(shadow_errors),
            )
        finally:
            self._refresh_alias.pop(current, None)

    def lineage(self, fingerprint: Optional[str] = None) -> List[str]:
        """The chain of superseded fingerprints, newest first.

        Starts at ``fingerprint`` (default: the network's current one) and
        follows the parent links recorded by :meth:`refresh`.  A structure
        never refreshed from has no parent; reverting mutations can in
        principle close a cycle in the lineage graph, so the walk stops at
        the first repeat.
        """
        current = fingerprint if fingerprint is not None else self.network.fingerprint()
        chain = [current]
        seen = {current}
        while current in self._lineage:
            current = self._lineage[current]
            if current in seen:
                break
            chain.append(current)
            seen.add(current)
        return chain

    # ------------------------------------------------------------------
    # Clients and channels
    # ------------------------------------------------------------------
    def _options(self, options: Optional[ClientOptions], **overrides: Any) -> ClientOptions:
        resolved = options or self.default_options
        changes = {key: value for key, value in overrides.items() if value is not None}
        return resolved.replace(**changes) if changes else resolved

    def channel(
        self,
        name: str,
        loss_rate: float = 0.0,
        seed: int = 0,
        options: Optional[ClientOptions] = None,
        **params: Any,
    ) -> BroadcastChannel:
        """A (cached) channel carrying the named scheme's cycle.

        The channel is memoized per ``(scheme, client options)`` so repeated
        :meth:`query` calls keep advancing the same session sequence instead
        of replaying session #1 forever.  The key carries the *full*
        :class:`ClientOptions` -- not just the loss fields -- so clients that
        differ in any option (e.g. the Section 6.1 memory bound) never share
        a session sequence: each option set sees the same deterministic
        sequence it would see alone.
        """
        name = registry.canonical_name(name)
        resolved = self._resolve_params(name, params)
        scheme, cache_key = self._scheme_entry(name, resolved)
        if options is None:
            options = self.default_options.replace(loss_rate=loss_rate, loss_seed=seed)
        # Keyed by the *effective* cache key: during an async refresh a
        # stale-while-refreshing hit keys the channel under the superseded
        # fingerprint, so the swap drops it together with the stale scheme.
        key = (*cache_key, options)
        if key not in self._channels:
            self._channels[key] = scheme.channel(
                loss_rate=options.loss_rate, seed=options.loss_seed
            )
        return self._channels[key]

    def client(self, name: str, options: Optional[ClientOptions] = None, **params: Any):
        """A client for the named scheme under the system's default options."""
        return self.scheme(name, **params).client(options=self._options(options))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        name: str,
        source: int,
        target: int,
        options: Optional[ClientOptions] = None,
        **params: Any,
    ) -> QueryResult:
        """Process one on-air query through the named scheme."""
        options = self._options(options)
        channel = self.channel(name, options=options, **params)
        client = self.scheme(name, **params).client(options=options)
        return client.query(
            source, target, channel=channel, tune_in_offset=options.tune_in_offset
        )

    def query_batch(
        self,
        name: str,
        workload: Iterable[Any],
        options: Optional[ClientOptions] = None,
        *,
        loss_rate: Optional[float] = None,
        loss_seed: Optional[int] = None,
        memory_bound: Optional[bool] = None,
        concurrency: int = 1,
        chunk_size: Optional[int] = None,
        **params: Any,
    ) -> MethodRun:
        """Run a whole workload through the named scheme and aggregate it.

        The workload may contain :class:`~repro.experiments.workloads.Query`
        objects (mismatches against the ground truth are counted) or plain
        ``(source, target)`` pairs.  A fresh, seeded channel is opened for
        the batch, so two identical calls -- or one batched call and one
        sequential per-query loop -- produce identical metrics.
        """
        options = self._options(
            options, loss_rate=loss_rate, loss_seed=loss_seed, memory_bound=memory_bound
        )
        scheme = self.scheme(name, **params)
        channel = scheme.channel(loss_rate=options.loss_rate, seed=options.loss_seed)
        return execute_workload(
            scheme,
            workload,
            options,
            channel=channel,
            concurrency=concurrency,
            chunk_size=chunk_size,
        )

    def simulate_fleet(
        self,
        name: str,
        devices: Sequence[DeviceSpec],
        options: Optional[ClientOptions] = None,
        *,
        concurrency: int = 1,
        seed: int = 0,
        chunk_size: Optional[int] = None,
        **params: Any,
    ) -> FleetRun:
        """Simulate a fleet of devices on the named scheme's broadcast.

        The scheme (and its cycle) comes from the system cache, so a fleet
        over an already-built scheme pays for session replay only -- no
        rebuilds.  Lossless devices share probe sessions via the
        :mod:`repro.broadcast.replay` fast path, executed in bulk through
        the vectorized :mod:`repro.broadcast.replay_bulk` kernel; lossy
        devices are simulated natively.  Like :meth:`query_batch`, the
        result is bit-identical for every ``concurrency`` value (wall-clock
        fields excepted).

        ``devices`` typically comes from a scenario generator such as
        :func:`repro.experiments.workloads.fleet_rush_hour`.
        """
        return _simulate_fleet(
            self.scheme(name, **params),
            devices,
            self._options(options),
            concurrency=concurrency,
            seed=seed,
            chunk_size=chunk_size,
        )

    def simulate_update_stream(self, name: str, stream: Any, **kwargs: Any):
        """Run an update stream with a device wave per step (dynamic networks).

        Convenience wrapper around
        :func:`repro.dynamic.simulate.simulate_update_stream`: each batch of
        ``stream`` is applied to the network, the cycle cache is refreshed
        through the incremental path, and a wave of devices tunes into the
        refreshed broadcast.  See that function for the keyword arguments.
        """
        from repro.dynamic.simulate import simulate_update_stream as _simulate_stream

        return _simulate_stream(self, name, stream, **kwargs)

    def compare(
        self,
        methods: Optional[Sequence[str]] = None,
        workload: Iterable[Any] = (),
        options: Optional[ClientOptions] = None,
        *,
        loss_rate: Optional[float] = None,
        concurrency: int = 1,
    ) -> Dict[str, MethodRun]:
        """Run the same workload through several methods (Figure 10 style).

        ``methods`` defaults to the registry's comparison set (the five
        schemes of the paper's device experiments).  Workloads are
        materialized once so every method sees the same queries.
        """
        names = [registry.canonical_name(m) for m in (methods or registry.comparison_schemes())]
        queries = list(workload)
        return {
            name: self.query_batch(
                name,
                queries,
                options,
                loss_rate=loss_rate,
                concurrency=concurrency,
            )
            for name in names
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        info = self.cache_info()
        return (
            f"AirSystem(network={self.network.name!r}, cached={info.entries}, "
            f"hits={info.hits}, misses={info.misses})"
        )
