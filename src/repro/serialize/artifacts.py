"""Versioned build artifacts: the unit the build/serve split moves around.

A :class:`BuildArtifact` carries everything a serving process needs to
reconstruct one scheme's built state over a network it already has: the
scheme's canonical name, its full parameter set, the fingerprint of the
network the state was computed over, and the scheme-specific payload encoded
with :mod:`repro.serialize.codec`.

On disk (and on the wire) an artifact is framed as::

    magic "AIRX" | u16 format version | u32 header length | header | payload | sha256

where the header is the codec encoding of a small dict (scheme, params,
network fingerprint, payload length) and the trailing sha256 covers every
preceding byte.  The framing gives the three failure modes their own
exception types so the store can react precisely: a bad magic/length/digest
is *corruption* (quarantine), a different format version is *staleness*
(rebuild cleanly), and a fingerprint that does not match the caller's
network is a *mismatch* (refuse to restore).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.serialize.codec import CodecError, decode_value, encode_value

__all__ = [
    "ARTIFACT_MAGIC",
    "FORMAT_VERSION",
    "STREAM_CHUNK_BYTES",
    "ArtifactError",
    "ArtifactChecksumError",
    "ArtifactVersionError",
    "ArtifactMismatchError",
    "BuildArtifact",
    "params_fingerprint",
]

#: First bytes of every artifact file.
ARTIFACT_MAGIC = b"AIRX"

#: Version of the serialized artifact layout *and* of every scheme's payload
#: schema.  Bump whenever either moves: readers reject other versions with
#: :class:`ArtifactVersionError`, which the store turns into a clean rebuild.
FORMAT_VERSION = 4

_CHECKSUM_BYTES = 32  # sha256 digest size
_PREFIX = struct.Struct("<HI")  # format version, header length

#: Copy granularity of the streaming encode/decode paths: large payloads
#: (continental CSR states) move between artifact and file in bounded
#: slices instead of one concatenated body + checksum copy.
STREAM_CHUNK_BYTES = 4 * 1024 * 1024


class ArtifactError(ValueError):
    """Base class for artifact encoding/decoding failures."""


class ArtifactChecksumError(ArtifactError):
    """The artifact bytes are corrupted (bad magic, framing, or digest)."""


class ArtifactVersionError(ArtifactError):
    """The artifact was written by a different format version."""

    def __init__(self, found: int, expected: int) -> None:
        super().__init__(
            f"artifact format version {found} != supported version {expected}"
        )
        self.found = found
        self.expected = expected


class ArtifactMismatchError(ArtifactError):
    """The artifact does not belong to the given scheme/network."""


def params_fingerprint(params: Mapping[str, Any]) -> str:
    """Canonical digest of a scheme's full parameter set.

    Key-order independent (items are sorted), value-exact (computed over the
    codec encoding, so ``1`` and ``True`` and ``1.0`` all differ).  Part of
    the store key alongside the network fingerprint and format version.
    """
    encoded = encode_value(tuple(sorted(params.items())))
    return hashlib.sha256(encoded).hexdigest()


@dataclass(frozen=True)
class BuildArtifact:
    """One scheme's built state, detached from any live object graph."""

    #: Canonical scheme name (the registry key, e.g. ``"NR"``).
    scheme: str
    #: Full parameter set (every dataclass field, defaults included).
    params: Dict[str, Any]
    #: ``RoadNetwork.fingerprint()`` of the network the state was built over.
    network_fingerprint: str
    #: Scheme-specific state, already codec-encoded.
    payload: bytes
    #: Format version the payload schema follows.
    format_version: int = FORMAT_VERSION

    def params_fingerprint(self) -> str:
        """Digest of :attr:`params` (see :func:`params_fingerprint`)."""
        return params_fingerprint(self.params)

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize with magic, version, header, payload and checksum."""
        header = encode_value(
            {
                "scheme": self.scheme,
                "params": dict(self.params),
                "network_fingerprint": self.network_fingerprint,
                "payload_bytes": len(self.payload),
            }
        )
        body = (
            ARTIFACT_MAGIC
            + _PREFIX.pack(self.format_version, len(header))
            + header
            + self.payload
        )
        return body + hashlib.sha256(body).digest()

    def write_to(self, handle, chunk_bytes: int = STREAM_CHUNK_BYTES) -> int:
        """Stream the framed encoding to a binary file object.

        Byte-for-byte identical output to ``handle.write(self.to_bytes())``
        but without ever concatenating the body: the payload moves in
        ``chunk_bytes`` slices while the checksum accumulates incrementally,
        so the extra memory is O(chunk) regardless of payload size (this is
        what keeps store publishes of continental CSR states flat).  Returns
        the number of bytes written.
        """
        digest = hashlib.sha256()
        header = encode_value(
            {
                "scheme": self.scheme,
                "params": dict(self.params),
                "network_fingerprint": self.network_fingerprint,
                "payload_bytes": len(self.payload),
            }
        )
        prefix = ARTIFACT_MAGIC + _PREFIX.pack(self.format_version, len(header)) + header
        handle.write(prefix)
        digest.update(prefix)
        payload = memoryview(self.payload)
        for start in range(0, len(payload), chunk_bytes):
            chunk = payload[start : start + chunk_bytes]
            handle.write(chunk)
            digest.update(chunk)
        handle.write(digest.digest())
        return len(prefix) + len(payload) + _CHECKSUM_BYTES

    @classmethod
    def read_from(cls, handle, chunk_bytes: int = STREAM_CHUNK_BYTES) -> "BuildArtifact":
        """Parse and fully validate an artifact from a binary file object.

        The streaming dual of :meth:`from_bytes`: the payload is read once
        into the ``bytes`` the artifact keeps and checksummed in
        ``chunk_bytes`` slices, so the framed whole (prefix + header +
        payload + digest) is never materialized as one contiguous copy the
        way ``read_bytes()`` + :meth:`from_bytes` does, nor is the payload
        copied again.
        Raises the same exceptions for the same failure modes -- truncation,
        bad magic, digest mismatch, or trailing garbage are
        :class:`ArtifactChecksumError`; a foreign format version is
        :class:`ArtifactVersionError` (checked before the header is
        interpreted).
        """
        digest = hashlib.sha256()
        prefix_len = len(ARTIFACT_MAGIC) + _PREFIX.size
        prefix = handle.read(prefix_len)
        if len(prefix) < prefix_len:
            raise ArtifactChecksumError("artifact truncated")
        if prefix[: len(ARTIFACT_MAGIC)] != ARTIFACT_MAGIC:
            raise ArtifactChecksumError("bad artifact magic")
        version, header_len = _PREFIX.unpack_from(prefix, len(ARTIFACT_MAGIC))
        if version != FORMAT_VERSION:
            raise ArtifactVersionError(version, FORMAT_VERSION)
        header_bytes = handle.read(header_len)
        if len(header_bytes) < header_len:
            raise ArtifactChecksumError("artifact header truncated")
        digest.update(prefix)
        digest.update(header_bytes)
        try:
            header = decode_value(header_bytes)
        except (CodecError, RecursionError) as exc:
            raise ArtifactChecksumError(f"malformed artifact header: {exc}") from None
        cls._check_header_fields(header)

        payload_bytes = header["payload_bytes"]
        payload = handle.read(payload_bytes)
        if len(payload) < payload_bytes:
            raise ArtifactChecksumError("artifact truncated")
        view = memoryview(payload)
        for start in range(0, payload_bytes, chunk_bytes):
            digest.update(view[start : start + chunk_bytes])
        trailer = handle.read(_CHECKSUM_BYTES)
        if len(trailer) < _CHECKSUM_BYTES:
            raise ArtifactChecksumError("artifact truncated")
        if handle.read(1):
            raise ArtifactChecksumError("artifact has trailing bytes")
        if digest.digest() != trailer:
            raise ArtifactChecksumError("artifact checksum mismatch")
        return cls(
            scheme=header["scheme"],
            params=header["params"],
            network_fingerprint=header["network_fingerprint"],
            payload=payload,
            format_version=version,
        )

    @classmethod
    def from_bytes(cls, data, *, copy_payload: bool = True) -> "BuildArtifact":
        """Parse and fully validate artifact bytes.

        Raises :class:`ArtifactChecksumError` for corruption of any sort and
        :class:`ArtifactVersionError` for a foreign format version (version
        is checked before the header is decoded: a future format may change
        the codec itself, so foreign headers are never interpreted -- and
        stale-but-intact files stay distinguishable from damaged ones).

        ``data`` may be ``bytes`` or a ``memoryview`` over a larger mapping
        (a shared-memory segment).  With ``copy_payload=False`` and a
        memoryview input, the returned artifact's :attr:`payload` is a
        zero-copy sub-view of ``data`` -- valid only while the underlying
        buffer stays mapped.  Validation (checksum included) is identical
        either way.
        """
        version, header = cls._parse_header(data)
        body, digest = data[:-_CHECKSUM_BYTES], data[-_CHECKSUM_BYTES:]
        if hashlib.sha256(body).digest() != bytes(digest):
            raise ArtifactChecksumError("artifact checksum mismatch")
        payload_bytes = header["payload_bytes"]
        payload_start = len(data) - _CHECKSUM_BYTES - payload_bytes
        payload = data[payload_start : payload_start + payload_bytes]
        if copy_payload or type(payload) is not memoryview:
            payload = bytes(payload)
        return cls(
            scheme=header["scheme"],
            params=header["params"],
            network_fingerprint=header["network_fingerprint"],
            payload=payload,
            format_version=version,
        )

    @classmethod
    def read_header(cls, data: bytes, total_size: Optional[int] = None) -> Dict[str, Any]:
        """Parse only the header (no checksum verification).

        Cheap metadata access for store listings; returns the header dict
        plus the format version under ``"format_version"``.  ``data`` may be
        just a file *prefix* covering the header when ``total_size`` carries
        the full file length -- listings then cost a bounded read per entry
        instead of the whole artifact.  Foreign format versions raise
        :class:`ArtifactVersionError` without interpreting their header.
        """
        version, header = cls._parse_header(data, total_size)
        header["format_version"] = version
        return header

    @staticmethod
    def _check_header_fields(header) -> None:
        if not isinstance(header, dict) or not {
            "scheme",
            "params",
            "network_fingerprint",
            "payload_bytes",
        } <= set(header):
            raise ArtifactChecksumError("incomplete artifact header")
        if type(header["payload_bytes"]) is not int or header["payload_bytes"] < 0:
            raise ArtifactChecksumError("malformed artifact header: bad payload length")

    @staticmethod
    def _parse_header(
        data: bytes, total_size: Optional[int] = None
    ) -> Tuple[int, Dict[str, Any]]:
        total = len(data) if total_size is None else total_size
        prefix_end = len(ARTIFACT_MAGIC) + _PREFIX.size
        if total < prefix_end + _CHECKSUM_BYTES or len(data) < prefix_end:
            raise ArtifactChecksumError("artifact truncated")
        if data[: len(ARTIFACT_MAGIC)] != ARTIFACT_MAGIC:
            raise ArtifactChecksumError("bad artifact magic")
        version, header_len = _PREFIX.unpack_from(data, len(ARTIFACT_MAGIC))
        if version != FORMAT_VERSION:
            raise ArtifactVersionError(version, FORMAT_VERSION)
        header_end = prefix_end + header_len
        if header_end + _CHECKSUM_BYTES > total or header_end > len(data):
            raise ArtifactChecksumError("artifact header truncated")
        try:
            header = decode_value(bytes(data[prefix_end:header_end]))
        except (CodecError, RecursionError) as exc:
            raise ArtifactChecksumError(f"malformed artifact header: {exc}") from None
        BuildArtifact._check_header_fields(header)
        expected = header_end + header["payload_bytes"] + _CHECKSUM_BYTES
        if expected != total:
            raise ArtifactChecksumError(
                f"artifact length {total} != framed length {expected}"
            )
        return version, header
