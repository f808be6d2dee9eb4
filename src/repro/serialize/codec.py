"""Deterministic tagged binary codec for plain Python values.

The value model covers exactly what the schemes' built state is made of:
``None``, ``bool``, ``int`` (arbitrary precision), ``float`` (IEEE-754
doubles, encoded exactly), ``str``, ``bytes``, ``list``, ``tuple``, ``dict``,
``set`` and ``frozenset``.  Three properties matter for the bit-identity
contract of the build/serve split:

* **Order preservation.**  Lists, tuples and dict insertion order round-trip
  exactly -- several structures (a Dijkstra sweep's settle-order distance
  dict, ArcFlag's edge-order flag table) rely on insertion order matching a
  from-scratch build.  Sets carry no meaningful order and are stored sorted,
  which also makes the encoding canonical.
* **Exactness.**  Floats are encoded as their 8 raw IEEE-754 bytes (``inf``
  included), ints as unbounded zigzag varints, so no value is rounded.
* **Determinism.**  Equal values encode to equal bytes (given equal
  insertion orders), so artifact files are reproducible and the store's
  checksums are stable.

Large homogeneous containers -- the distance tables dominating a scheme's
state -- take bulk fast paths: a list/tuple of ``int64``-range ints or of
floats is packed through :class:`array.array` in one shot, and dicts encode
as a key list plus a value list so both sides inherit the same fast paths.
State that already lives in numpy arrays (the border-path labels of
:mod:`repro.air.border_paths`) is handed over as its raw ``bytes`` instead.
"""

from __future__ import annotations

import sys
from array import array
from typing import Any, Tuple

__all__ = ["CodecError", "encode_value", "decode_value"]

_LITTLE_ENDIAN = sys.byteorder == "little"

# One byte per value tag.  Changing any tag's wire layout is a format
# change: bump repro.serialize.artifacts.FORMAT_VERSION alongside.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_SET = 0x0A
_T_FROZENSET = 0x0B
_T_LIST_I64 = 0x0C
_T_LIST_F64 = 0x0D
_T_TUPLE_I64 = 0x0E
_T_TUPLE_F64 = 0x0F


class CodecError(ValueError):
    """Raised for unsupported values on encode or malformed bytes on decode."""


# ----------------------------------------------------------------------
# Varints (unsigned base-128, zigzag for signed)
# ----------------------------------------------------------------------
def _write_uvarint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _zigzag(value: int) -> int:
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return value >> 1 if not value & 1 else -((value + 1) >> 1)


class _Reader:
    """Sequential reader over the encoded bytes with bounds checking.

    ``data`` may be ``bytes`` or a 1-D uint8 ``memoryview`` (e.g. over a
    shared-memory segment); slicing a memoryview is zero-copy, so a reader
    over one never duplicates the underlying buffer.  ``bytes_views``
    controls what :data:`_T_BYTES` values decode to: copies (``False``, the
    default) or zero-copy sub-views of ``data`` (``True``).
    """

    __slots__ = ("data", "pos", "bytes_views")

    def __init__(self, data, bytes_views: bool = False) -> None:
        self.data = data
        self.pos = 0
        self.bytes_views = bytes_views

    def take(self, count: int):
        end = self.pos + count
        if end > len(self.data):
            raise CodecError("truncated value: ran past the end of the buffer")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def uvarint(self) -> int:
        data = self.data
        pos = self.pos
        result = 0
        shift = 0
        while True:
            if pos >= len(data):
                raise CodecError("truncated varint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        self.pos = pos
        return result


# ----------------------------------------------------------------------
# Bulk (homogeneous) container fast paths
# ----------------------------------------------------------------------
_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1


def _bulk_pack(value) -> Tuple[int, bytes]:
    """Try the homogeneous fast path; returns ``(kind, packed)`` or ``(0, b"")``.

    ``kind`` is 1 for int64 payloads, 2 for float payloads.  ``bool`` is a
    subclass of ``int``, so element types are checked exactly -- ``True``
    must round-trip as ``True``, not ``1``.
    """
    first_type = type(value[0])
    if first_type is int:
        for item in value:
            if type(item) is not int or item < _I64_MIN or item > _I64_MAX:
                return 0, b""
        packed = array("q", value)
    elif first_type is float:
        for item in value:
            if type(item) is not float:
                return 0, b""
        packed = array("d", value)
    else:
        return 0, b""
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        packed.byteswap()
    return (1 if first_type is int else 2), packed.tobytes()


def _bulk_unpack(reader: _Reader, typecode: str) -> list:
    count = reader.uvarint()
    packed = array(typecode)
    packed.frombytes(reader.take(count * packed.itemsize))
    if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
        packed.byteswap()
    return packed.tolist()


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _encode(buf: bytearray, value: Any) -> None:
    kind = type(value)
    if value is None:
        buf.append(_T_NONE)
    elif kind is bool:
        buf.append(_T_TRUE if value else _T_FALSE)
    elif kind is int:
        buf.append(_T_INT)
        _write_uvarint(buf, _zigzag(value))
    elif kind is float:
        buf.append(_T_FLOAT)
        packed = array("d", (value,))
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
            packed.byteswap()
        buf += packed.tobytes()
    elif kind is str:
        raw = value.encode("utf-8")
        buf.append(_T_STR)
        _write_uvarint(buf, len(raw))
        buf += raw
    elif kind is bytes:
        buf.append(_T_BYTES)
        _write_uvarint(buf, len(value))
        buf += value
    elif kind is memoryview:
        # A ``bytes_views`` decode hands byte blobs back as memoryviews;
        # encoding them as plain bytes keeps a re-encoded payload (a serving
        # form's, say) byte-identical to the original.
        raw = value.tobytes()
        buf.append(_T_BYTES)
        _write_uvarint(buf, len(raw))
        buf += raw
    elif kind is list or kind is tuple:
        is_list = kind is list
        if value:
            bulk_kind, packed = _bulk_pack(value)
            if bulk_kind:
                if bulk_kind == 1:
                    buf.append(_T_LIST_I64 if is_list else _T_TUPLE_I64)
                else:
                    buf.append(_T_LIST_F64 if is_list else _T_TUPLE_F64)
                _write_uvarint(buf, len(value))
                buf += packed
                return
        buf.append(_T_LIST if is_list else _T_TUPLE)
        _write_uvarint(buf, len(value))
        for item in value:
            _encode(buf, item)
    elif kind is dict:
        # Keys then values, each as one container, so large homogeneous
        # dicts (node id -> distance) hit the bulk paths on both sides.
        buf.append(_T_DICT)
        _encode(buf, list(value.keys()))
        _encode(buf, list(value.values()))
    elif kind is set or kind is frozenset:
        buf.append(_T_SET if kind is set else _T_FROZENSET)
        try:
            items = sorted(value)
        except TypeError as exc:
            raise CodecError(f"set elements must be sortable: {exc}") from None
        _encode(buf, items)
    else:
        raise CodecError(f"cannot encode value of type {kind.__name__}")


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _decode(reader: _Reader) -> Any:
    tag = reader.take(1)[0]
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return _unzigzag(reader.uvarint())
    if tag == _T_FLOAT:
        packed = array("d")
        packed.frombytes(reader.take(8))
        if not _LITTLE_ENDIAN:  # pragma: no cover - big-endian hosts only
            packed.byteswap()
        return packed[0]
    if tag == _T_STR:
        try:
            return str(reader.take(reader.uvarint()), "utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"malformed utf-8 string: {exc}") from None
    if tag == _T_BYTES:
        chunk = reader.take(reader.uvarint())
        if reader.bytes_views and type(chunk) is memoryview:
            return chunk
        return bytes(chunk)
    if tag == _T_LIST or tag == _T_TUPLE:
        count = reader.uvarint()
        items = [_decode(reader) for _ in range(count)]
        return items if tag == _T_LIST else tuple(items)
    if tag == _T_LIST_I64 or tag == _T_TUPLE_I64:
        items = _bulk_unpack(reader, "q")
        return items if tag == _T_LIST_I64 else tuple(items)
    if tag == _T_LIST_F64 or tag == _T_TUPLE_F64:
        items = _bulk_unpack(reader, "d")
        return items if tag == _T_LIST_F64 else tuple(items)
    if tag == _T_DICT:
        keys = _decode(reader)
        values = _decode(reader)
        if type(keys) is not list or type(values) is not list or len(keys) != len(values):
            raise CodecError("malformed dict encoding")
        try:
            return dict(zip(keys, values))
        except TypeError as exc:  # corrupt bytes decoding an unhashable key
            raise CodecError(f"malformed dict encoding: {exc}") from None
    if tag == _T_SET or tag == _T_FROZENSET:
        items = _decode(reader)
        if type(items) not in (list, tuple):
            raise CodecError("malformed set encoding")
        try:
            return set(items) if tag == _T_SET else frozenset(items)
        except TypeError as exc:  # corrupt bytes decoding an unhashable item
            raise CodecError(f"malformed set encoding: {exc}") from None
    raise CodecError(f"unknown value tag 0x{tag:02x}")


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def encode_value(value: Any) -> bytes:
    """Encode a plain value to its deterministic binary form."""
    buf = bytearray()
    _encode(buf, value)
    return bytes(buf)


def decode_value(data, *, bytes_views: bool = False) -> Any:
    """Decode bytes produced by :func:`encode_value`.

    ``data`` may be ``bytes`` or a contiguous ``memoryview`` (a shared-memory
    mapping, say).  With ``bytes_views=True`` *and* a memoryview input,
    ``bytes`` values decode to zero-copy sub-views of ``data`` instead of
    copies -- :meth:`~repro.air.base.AirIndexScheme.serving_artifact` uses
    this so the byte blobs it strips from a payload are never copied.  View
    outputs stay valid only as long as the underlying buffer; everything
    else (ints, floats, strings, containers) is a normal owned object
    either way.

    Raises :class:`CodecError` on malformed or trailing bytes -- a value
    must occupy the buffer exactly.
    """
    if type(data) is memoryview and data.format != "B":
        data = data.cast("B")
    reader = _Reader(data, bytes_views=bytes_views)
    value = _decode(reader)
    if reader.pos != len(data):
        raise CodecError(
            f"trailing bytes after value ({len(data) - reader.pos} unread)"
        )
    return value
