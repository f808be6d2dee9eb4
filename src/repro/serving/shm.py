"""Zero-copy publication of built indexes through shared memory.

A :class:`SharedArtifactSegment` packs everything N serving workers need to
warm-start -- the network's arrays (CSR snapshot, coordinates and, when it
is not ascending, the node insertion order) and each scheme's *serving
form* (:meth:`~repro.air.base.AirIndexScheme.serving_artifact`) -- into a
single :class:`multiprocessing.shared_memory.SharedMemory` block.  Workers
attach the block and wire a read-only
:meth:`~repro.network.graph.RoadNetwork.from_arrays` network over the
mapping, then restore each scheme from its serving form (which holds no
byte blob, so a restore references nothing in the mapping).

A serving form is the store's :class:`~repro.serialize.artifacts.BuildArtifact`
(same scheme, parameters and fingerprint) without the state only a refresh
reads.  Workers never refresh -- the server refreshes its own system and
publishes a new segment -- so for EB and NR the per-source border-path
block, nearly all of their artifact bytes, stays with the server and the
store, and a publication neither copies nor hashes it.

What is shared and what each process holds:

* **Shared** (one physical copy, however many workers serve it): the six
  flat CSR arrays, the coordinates, the insertion order and the scheme
  artifacts' serving forms.
* **Per process**: the id list and the id -> index map (arithmetic for
  contiguous ids).  Every compiled search and path walk reads the mapped
  flat arrays.  Only two readers build the ``(neighbor_index, weight)``
  tuple adjacency :attr:`CSRGraph.fwd_adj`/:attr:`~CSRGraph.rev_adj`, on
  their first use in a worker: Landmark's A* (the kernel's potential
  loop) and the Section 6.1 memory-bound client's region compression.  A
  worker serving neither never builds it; one that does holds 1.24 MiB
  forward and 1.35 MiB more reverse at 4,907 nodes, against 0.38 MiB of
  flat arrays.  The tuples hold plain values, not views into the mapping,
  so they never keep a swapped-off segment mapped.

The network's fingerprint travels in the directory, and the payload
checksum is seeded with it: a worker whose :meth:`~SharedArtifactSegment.verify`
passed takes the fingerprint as published instead of re-hashing every node
and edge of the mapped arrays (the larger part of a swap), and a directory
whose fingerprint was rewritten fails verification like a corrupted payload.

Segment layout (all offsets 8-byte aligned)::

    magic "AIRS" | u32 directory length | directory | sections ...

where the directory is a codec-encoded dict naming each section's offset
and length: the id list, the six CSR arrays, the ``x``/``y`` coordinates,
the optional insertion order, and one framed serving artifact per scheme.  The
directory is tiny and the sections are raw array/artifact bytes, so attach
cost is microseconds.

Lifecycle: the server process *publishes* (creates) a segment per cycle
generation and *unlinks* it once every worker has swapped off it; workers
*attach* and must :meth:`close` before exiting.  On Python 3.11 an attach
auto-registers with the resource tracker, which would double-unlink at
worker exit -- :meth:`attach` unregisters itself, matching the ownership
model (the server owns the segment's lifetime).
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.air.base import AirIndexScheme
from repro.faults import runtime as faults
from repro.network.csr import CSRGraph
from repro.network.graph import RoadNetwork
from repro.serialize.artifacts import BuildArtifact
from repro.serialize.codec import decode_value, encode_value

__all__ = [
    "SegmentIntegrityError",
    "SharedArtifactSegment",
    "mapping_stats",
    "process_rss_kb",
]


class SegmentIntegrityError(ValueError):
    """The segment's payload does not match its published checksum."""

_MAGIC = b"AIRS"
_DIR_LEN = struct.Struct("<I")

_CSR_SECTIONS: Tuple[Tuple[str, str], ...] = (
    ("fwd_offsets", "q"),
    ("fwd_targets", "q"),
    ("fwd_weights", "d"),
    ("rev_offsets", "q"),
    ("rev_targets", "q"),
    ("rev_weights", "d"),
)


def _align(offset: int) -> int:
    return (offset + 7) & ~7


def _checksum(fingerprint: str):
    """The payload digest, seeded with the network's fingerprint."""
    return hashlib.sha256(fingerprint.encode("utf-8"))


class SharedArtifactSegment:
    """One publication of a built index, mapped zero-copy by every worker."""

    def __init__(
        self, shm: shared_memory.SharedMemory, owner: bool, directory: Dict[str, Any]
    ) -> None:
        self._shm = shm
        self._owner = owner
        self._directory = directory
        # Workers never write: a read-only root view turns any stray store
        # into an immediate TypeError instead of silently mutating every
        # process mapping the segment.
        self._buf: Optional[memoryview] = memoryview(shm.buf).toreadonly()
        self._closed = False
        self._unlinked = False

    # ------------------------------------------------------------------
    # Publication (build side)
    # ------------------------------------------------------------------
    @classmethod
    def publish(
        cls,
        network: RoadNetwork,
        artifacts: Mapping[str, BuildArtifact],
        name: Optional[str] = None,
    ) -> "SharedArtifactSegment":
        """Create a segment holding ``network``'s index and the artifacts'
        serving forms.

        ``artifacts`` maps scheme name to its :class:`BuildArtifact`; every
        artifact must have been built over ``network``'s current
        fingerprint (the workers' restore re-validates this).  The segment
        holds each one's :meth:`~repro.air.base.AirIndexScheme.serving_artifact`.
        Staged structural edits are folded into the network's arrays first.
        """
        csr = network.ensure_csr()
        fingerprint = network.fingerprint()
        for scheme_name, artifact in artifacts.items():
            if artifact.network_fingerprint != fingerprint:
                raise ValueError(
                    f"artifact {scheme_name!r} was built over "
                    f"{artifact.network_fingerprint}, not the network's "
                    f"current fingerprint {fingerprint}"
                )
        directory: Dict[str, Any] = {
            "fingerprint": fingerprint,
            "network_name": network.name,
            "csr_name": csr.name,
            "csr": {},
            "artifacts": {},
            "payload_sha256": "",
            "payload_bytes": 0,
        }
        # (raw bytes, (directory table, key)) for every section, in order.
        x, y, order = network.node_arrays()
        sections: List[Tuple[bytes, Tuple[Dict[str, Any], str]]] = [
            (array("q", csr.ids).tobytes(), (directory, "ids")),
            *(
                (getattr(csr, section_name).tobytes(), (directory["csr"], section_name))
                for section_name, _typecode in _CSR_SECTIONS
            ),
            (x.tobytes(), (directory, "x")),
            (y.tobytes(), (directory, "y")),
        ]
        if order is not None:
            sections.append((array("q", order).tobytes(), (directory, "order")))
        for scheme_name in sorted(artifacts):
            raw = AirIndexScheme.serving_artifact(artifacts[scheme_name]).to_bytes()
            sections.append((raw, (directory["artifacts"], scheme_name)))

        # Lay out the payload area; the directory is encoded afterwards with
        # the final absolute offsets, so its own length must be fixed first.
        # Offsets are recorded relative to the payload base, making the
        # directory's encoded size independent of where the payload starts.
        offset = 0
        slots: List[Tuple[Any, int, int]] = []
        for raw, slot in sections:
            offset = _align(offset)
            slots.append((slot, offset, len(raw)))
            offset += len(raw)
        payload_bytes = offset
        for (table, key), start, length in slots:
            table[key] = [start, length]
        # Checksum the fingerprint, then the payload area exactly as it will
        # land in the segment (sections in order, alignment gaps zero --
        # fresh shared memory is zero-filled), so workers can verify
        # integrity before serving and trust the fingerprint afterwards.
        digest = _checksum(fingerprint)
        position = 0
        for (raw, _slot), (_s, start, length) in zip(sections, slots):
            if start > position:
                digest.update(b"\x00" * (start - position))
            digest.update(raw)
            position = start + length
        directory["payload_sha256"] = digest.hexdigest()
        directory["payload_bytes"] = payload_bytes

        directory_raw = encode_value(directory)
        base = _align(len(_MAGIC) + _DIR_LEN.size + len(directory_raw))

        shm = shared_memory.SharedMemory(
            create=True, size=base + payload_bytes, name=name
        )
        buf = shm.buf
        buf[: len(_MAGIC)] = _MAGIC
        _DIR_LEN.pack_into(buf, len(_MAGIC), len(directory_raw))
        header_end = len(_MAGIC) + _DIR_LEN.size
        buf[header_end : header_end + len(directory_raw)] = directory_raw
        for (raw, _slot), (_s, start, length) in zip(sections, slots):
            buf[base + start : base + start + length] = raw
        event = faults.inject("shm.segment.tamper", segment=shm.name)
        if event is not None:
            # Flip one payload byte *after* the checksum was recorded: the
            # segment now fails ``verify()``, exactly like a stray writer or
            # DMA corruption would.
            victim = base + payload_bytes // 2
            buf[victim] = buf[victim] ^ 0xFF
        directory["_base"] = base
        return cls(shm, owner=True, directory=directory)

    @classmethod
    def attach(cls, name: str) -> "SharedArtifactSegment":
        """Map an existing segment by name (worker side)."""
        shm = shared_memory.SharedMemory(name=name)
        # Python 3.11's attach path registers the mapping with the resource
        # tracker as if this process owned it, which would unlink the file
        # when the *worker* exits.  The server owns the lifetime; undo it.
        try:  # pragma: no cover - tracker internals vary across versions
            resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
        buf = shm.buf
        if bytes(buf[: len(_MAGIC)]) != _MAGIC:
            shm.close()
            raise ValueError(f"shared segment {name!r} has a bad magic")
        (dir_len,) = _DIR_LEN.unpack_from(buf, len(_MAGIC))
        header_end = len(_MAGIC) + _DIR_LEN.size
        directory = decode_value(bytes(buf[header_end : header_end + dir_len]))
        directory["_base"] = _align(header_end + dir_len)
        return cls(shm, owner=False, directory=directory)

    # ------------------------------------------------------------------
    # Mapped views (worker side)
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def fingerprint(self) -> str:
        return self._directory["fingerprint"]

    @property
    def scheme_names(self) -> List[str]:
        return sorted(self._directory["artifacts"])

    @property
    def size_bytes(self) -> int:
        return self._shm.size

    def _view(self, start: int, length: int) -> memoryview:
        if self._buf is None:
            raise ValueError("segment is closed")
        base = self._directory["_base"]
        return self._buf[base + start : base + start + length]

    def verify(self) -> bool:
        """Re-hash the directory's fingerprint and the payload area against
        the published checksum.

        Raises :class:`SegmentIntegrityError` on mismatch; returns ``True``
        otherwise.  Workers call this between :meth:`attach` and serving, so
        a segment corrupted in flight (or tampered via the
        ``shm.segment.tamper`` fault point) is rejected before a single
        query reads through it, and a verified segment's fingerprint is the
        one its network was published with.  Every :meth:`publish` records
        a checksum, so a directory without one is damaged and fails too.
        """
        expected = self._directory.get("payload_sha256")
        if not expected:
            raise SegmentIntegrityError(
                f"segment {self.name!r} directory carries no payload checksum"
            )
        if self._buf is None:
            raise ValueError("segment is closed")
        base = self._directory["_base"]
        payload_bytes = int(self._directory.get("payload_bytes", 0))
        view = self._buf[base : base + payload_bytes]
        try:
            # A damaged directory may lack the fingerprint or hold another
            # type; either way the digest mismatches.
            digest = _checksum(str(self._directory.get("fingerprint")))
            digest.update(view)
            actual = digest.hexdigest()
        finally:
            view.release()
        if actual != expected:
            raise SegmentIntegrityError(
                f"segment {self.name!r} payload hash {actual[:12]}... does not "
                f"match published {expected[:12]}..."
            )
        return True

    def _section(self, name: str, typecode: str) -> memoryview:
        start, length = self._directory[name]
        return self._view(start, length).cast(typecode)

    def csr_graph(self) -> CSRGraph:
        """A :meth:`CSRGraph.from_buffers` snapshot over the mapping."""
        views = []
        for section_name, typecode in _CSR_SECTIONS:
            start, length = self._directory["csr"][section_name]
            views.append(self._view(start, length).cast(typecode))
        return CSRGraph.from_buffers(
            self._section("ids", "q"), *views, name=self._directory["csr_name"]
        )

    def restore_network(self) -> RoadNetwork:
        """The published network, read-only over the mapped arrays.

        Nothing is decoded or copied: ids, spans, weights, coordinates and
        insertion order are all views into the segment.  The fingerprint is
        the directory's, which the payload checksum covers: call
        :meth:`verify` first, and an artifact restored against this network
        is checked against what the segment holds without a re-hash.
        """
        order = self._section("order", "q") if "order" in self._directory else None
        return RoadNetwork.from_arrays(
            self.csr_graph(),
            self._section("x", "d"),
            self._section("y", "d"),
            name=self._directory["network_name"],
            order=order,
            fingerprint=self._directory["fingerprint"],
        )

    def artifact(self, scheme_name: str) -> BuildArtifact:
        """The named scheme's serving artifact, payload referenced in place."""
        entry = self._directory["artifacts"].get(scheme_name)
        if entry is None:
            raise KeyError(
                f"segment holds no artifact for scheme {scheme_name!r} "
                f"(has: {', '.join(self.scheme_names) or 'none'})"
            )
        return BuildArtifact.from_bytes(self._view(*entry), copy_payload=False)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> bool:
        """Drop this process's mapping; ``True`` when fully released.

        Closing can fail benignly: a network wired over the mapped arrays
        holds memoryview exports into it, and CPython refuses to unmap
        while they live.  Callers drop their references first; if something
        still holds one, the mapping stays (the OS reclaims it with the
        process) and ``False`` is returned rather than raising mid-swap.
        """
        if self._closed:
            return True
        self._buf = None
        try:
            self._shm.close()
        except BufferError:
            # Dropped references may sit in cycles; one collection usually
            # releases the last exports.  If not, give up gracefully.
            import gc

            gc.collect()
            try:
                self._shm.close()
            except BufferError:
                return False
        self._closed = True
        return True

    def unlink(self) -> None:
        """Remove the segment's backing file (owner side; idempotent).

        Safe while workers still map it -- POSIX keeps the memory alive
        until the last mapping closes, exactly the semantics the refresh
        swap needs (old workers finish in-flight requests on the old
        segment while the name already points nowhere).
        """
        if self._unlinked:
            return
        self._unlinked = True
        # A forked worker's attach/unregister may have removed the tracker
        # entry this unlink is about to unregister (the tracker process is
        # shared across the fork); re-register first so the bookkeeping
        # balances instead of logging a KeyError from the tracker.
        try:  # pragma: no cover - tracker internals vary across versions
            resource_tracker.register(self._shm._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - racing unlink
            pass


# ----------------------------------------------------------------------
# Sharing evidence (/proc introspection, Linux)
# ----------------------------------------------------------------------
def process_rss_kb(pid: int) -> Optional[int]:
    """A process's resident set size in kB (``None`` off-Linux)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def mapping_stats(pid: int, segment_name: str) -> Optional[Dict[str, int]]:
    """Per-process counters of one shared segment's mapping, from smaps.

    Returns ``rss_kb`` (resident), ``shared_kb`` (resident pages shared
    with other processes) and ``private_dirty_kb`` (pages this process
    copied or wrote -- the tell-tale of a *copied* index; near zero when
    the index is genuinely shared).  ``None`` when the mapping or smaps is
    unavailable.
    """
    wanted = f"/{segment_name}"
    totals = {"rss_kb": 0, "shared_kb": 0, "private_dirty_kb": 0}
    found = False
    try:
        with open(f"/proc/{pid}/smaps", "r", encoding="ascii") as handle:
            in_mapping = False
            for line in handle:
                if "-" in line.split(" ", 1)[0] and " " in line:
                    # Mapping header lines end with the backing path.
                    in_mapping = line.rstrip("\n").endswith(wanted)
                    found = found or in_mapping
                elif in_mapping:
                    parts = line.split()
                    if len(parts) >= 2:
                        if parts[0] == "Rss:":
                            totals["rss_kb"] += int(parts[1])
                        elif parts[0] in ("Shared_Clean:", "Shared_Dirty:"):
                            totals["shared_kb"] += int(parts[1])
                        elif parts[0] == "Private_Dirty:":
                            totals["private_dirty_kb"] += int(parts[1])
    except (OSError, ValueError, IndexError):
        return None
    return totals if found else None
