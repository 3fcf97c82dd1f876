"""Order-preserving byte encoding of Firestore values.

Index entries live in the Spanner ``IndexEntries`` table whose key is an
``(index-id, values, name)`` tuple where "the encoding of the n-tuple of
values ... preserves the index's desired sort order" (paper section
IV-D1), so that a linear scan of rows is a linear scan of the logical
Firestore index.

Properties of the encoding produced here:

- **order-preserving**: ``encode_value(a) < encode_value(b)`` iff
  ``compare_values(a, b) < 0`` (and equal encodings iff equal values,
  e.g. ``5`` and ``5.0`` encode identically);
- **self-delimiting and prefix-free**: encodings concatenate into tuple
  encodings that compare like tuples;
- **direction-aware**: a descending component is the bytewise complement
  of its ascending form, so composite indexes like
  ``(city asc, avgRating desc)`` scan in the right order.

The scheme follows Google's OrderedCode conventions: strings/bytes escape
``0x00`` as ``0x00 0xFF`` and terminate with ``0x00 0x01``; composite
structures terminate with low sentinel bytes; doubles use the sign-flip
trick. Integers carry an exact-residue tiebreak so int64s beyond double
precision still order exactly.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Iterable, Sequence

from repro.errors import InvalidArgument
from repro.core.values import GeoPoint, Reference, Timestamp, type_rank

# Type tags, ascending in Firestore's cross-type order. All >= 0x01 so a
# 0x00 byte unambiguously terminates arrays/maps.
TAG_NULL = 0x05
TAG_FALSE = 0x0A
TAG_TRUE = 0x0B
TAG_NAN = 0x0F
TAG_NUMBER = 0x14
TAG_TIMESTAMP = 0x1E
TAG_STRING = 0x28
TAG_BYTES = 0x32
TAG_REFERENCE = 0x3C
TAG_GEOPOINT = 0x46
TAG_ARRAY = 0x50
TAG_MAP = 0x5A

_ESCAPE = b"\x00\xff"       # a literal 0x00 inside a string/bytes
_TERMINATOR = b"\x00\x01"   # end of a string/bytes/segment
_LOW_SENTINEL = b"\x00\x00"  # end of a reference/map (sorts below all content)

ASCENDING = "asc"
DESCENDING = "desc"

# bytes.translate table mapping every byte to its complement (descending)
_COMPLEMENT = bytes(range(255, -1, -1))


def _encode_escaped(raw: bytes, out: bytearray) -> None:
    """Append ``raw`` with 0x00 escaped, then the terminator."""
    idx = raw.find(b"\x00")
    if idx < 0:
        out += raw
    else:
        for byte in raw:
            if byte == 0:
                out += _ESCAPE
            else:
                out.append(byte)
    out += _TERMINATOR


def _encode_double_bits(value: float, out: bytearray) -> None:
    """8 bytes of IEEE-754 double, transformed to sort numerically."""
    if value == 0.0:
        value = 0.0  # canonicalize -0.0
    (bits,) = struct.unpack(">Q", struct.pack(">d", value))
    if bits & 0x8000_0000_0000_0000:
        bits ^= 0xFFFF_FFFF_FFFF_FFFF  # negative: flip everything
    else:
        bits ^= 0x8000_0000_0000_0000  # non-negative: flip the sign bit
    out += struct.pack(">Q", bits)


def _encode_number(value: int | float, out: bytearray) -> None:
    """Transformed double + exact integer residue tiebreak.

    ``float(int_value)`` rounds to the nearest double; the residue
    (exact int minus that double) is what distinguishes e.g. 2**60 and
    2**60 + 1, which share a double. Doubles always have residue 0, so
    5 and 5.0 encode identically (they are equal in Firestore).
    """
    if isinstance(value, float):
        rounded = value
        residue = 0
    else:
        rounded = float(value)
        if math.isfinite(rounded):
            residue = value - int(rounded)
        else:  # cannot happen for int64, kept for safety
            rounded = math.inf if value > 0 else -math.inf
            residue = 0
    _encode_double_bits(rounded, out)
    out += struct.pack(">Q", (residue + (1 << 63)) & 0xFFFF_FFFF_FFFF_FFFF)


def _encode_segments(segments: Iterable[str], out: bytearray) -> None:
    for segment in segments:
        _encode_escaped(segment.encode("utf-8"), out)
    out += _LOW_SENTINEL


def _encode_into(value: Any, out: bytearray) -> None:
    type_rank(value)  # raises InvalidArgument for unsupported types
    if value is None:
        out.append(TAG_NULL)
    elif isinstance(value, bool):
        out.append(TAG_TRUE if value else TAG_FALSE)
    elif isinstance(value, float) and math.isnan(value):
        out.append(TAG_NAN)
    elif isinstance(value, (int, float)):
        out.append(TAG_NUMBER)
        _encode_number(value, out)
    elif isinstance(value, Timestamp):
        out.append(TAG_TIMESTAMP)
        out += struct.pack(">Q", (value.micros + (1 << 63)) & 0xFFFF_FFFF_FFFF_FFFF)
    elif isinstance(value, str):
        out.append(TAG_STRING)
        _encode_escaped(value.encode("utf-8"), out)
    elif isinstance(value, bytes):
        out.append(TAG_BYTES)
        _encode_escaped(value, out)
    elif isinstance(value, Reference):
        out.append(TAG_REFERENCE)
        _encode_segments(value.segments(), out)
    elif isinstance(value, GeoPoint):
        out.append(TAG_GEOPOINT)
        _encode_double_bits(value.latitude, out)
        _encode_double_bits(value.longitude, out)
    elif isinstance(value, list):
        out.append(TAG_ARRAY)
        for item in value:
            _encode_into(item, out)
        out.append(0x00)
    elif isinstance(value, dict):
        out.append(TAG_MAP)
        for key in sorted(value):
            if not isinstance(key, str):
                raise InvalidArgument("map keys must be strings")
            _encode_escaped(key.encode("utf-8"), out)
            _encode_into(value[key], out)
        out += _LOW_SENTINEL
    else:  # pragma: no cover - type_rank already rejected it
        raise InvalidArgument(f"unsupported value type: {type(value).__name__}")


def encode_value(value: Any, direction: str = ASCENDING) -> bytes:
    """Encode one value; descending is the bytewise complement."""
    out = bytearray()
    _encode_into(value, out)
    if direction == DESCENDING:
        return bytes(out).translate(_COMPLEMENT)
    if direction != ASCENDING:
        raise InvalidArgument(f"unknown direction: {direction!r}")
    return bytes(out)


def encode_tuple(values: Sequence[Any], directions: Sequence[str]) -> bytes:
    """Encode an n-tuple of values with per-component directions."""
    if len(values) != len(directions):
        raise InvalidArgument("values and directions length mismatch")
    out = bytearray()
    for value, direction in zip(values, directions):
        out += encode_value(value, direction)
    return bytes(out)


def encode_doc_name(segments: Sequence[str], direction: str = ASCENDING) -> bytes:
    """Encode a document path as an order-preserving byte string.

    Segment-wise, so 'a/b' < 'ab' iff ('a','b') < ('ab',) as tuples —
    plain string comparison would get nested collections wrong whenever a
    segment contains bytes below '/'.
    """
    out = bytearray()
    _encode_segments(segments, out)
    if direction == DESCENDING:
        return bytes(out).translate(_COMPLEMENT)
    return bytes(out)


def prefix_successor(prefix: bytes) -> bytes | None:
    """The smallest byte string greater than every string with ``prefix``.

    Returns None when no such string exists (prefix is all 0xFF), meaning
    the scan is unbounded above.
    """
    trimmed = prefix.rstrip(b"\xff")
    if not trimmed:
        return None
    return trimmed[:-1] + bytes([trimmed[-1] + 1])


def decode_skip_value(data: bytes, offset: int) -> int:
    """Return the offset just past the value encoded at ``offset``.

    The index layer uses this to split an IndexEntries row key back into
    its value components and trailing document name without a full
    decoder (values themselves are also stored decoded in the row).
    """
    if offset >= len(data):
        raise InvalidArgument("truncated encoding")
    tag = data[offset]
    offset += 1
    if tag in (TAG_NULL, TAG_FALSE, TAG_TRUE, TAG_NAN):
        return offset
    if tag == TAG_NUMBER:
        return offset + 16
    if tag == TAG_TIMESTAMP:
        return offset + 8
    if tag == TAG_GEOPOINT:
        return offset + 16
    if tag in (TAG_STRING, TAG_BYTES):
        return _skip_escaped(data, offset)
    if tag == TAG_REFERENCE:
        return _skip_segments(data, offset)
    if tag == TAG_ARRAY:
        while data[offset] != 0x00:
            offset = decode_skip_value(data, offset)
        return offset + 1
    if tag == TAG_MAP:
        while data[offset : offset + 2] != _LOW_SENTINEL:
            offset = _skip_escaped(data, offset)
            offset = decode_skip_value(data, offset)
        return offset + 2
    raise InvalidArgument(f"unknown type tag 0x{tag:02x}")


def _skip_escaped(data: bytes, offset: int) -> int:
    while True:
        idx = data.find(b"\x00", offset)
        if idx < 0 or idx + 1 >= len(data):
            raise InvalidArgument("unterminated escaped byte string")
        marker = data[idx + 1]
        if marker == 0x01:
            return idx + 2
        if marker == 0xFF:
            offset = idx + 2
        else:
            raise InvalidArgument("corrupt escape sequence")


def _skip_segments(data: bytes, offset: int) -> int:
    while data[offset : offset + 2] != _LOW_SENTINEL:
        offset = _skip_escaped(data, offset)
    return offset + 2


def decode_doc_name(data: bytes, offset: int = 0) -> tuple[tuple[str, ...], int]:
    """Decode a document name encoded by :func:`encode_doc_name`.

    Returns (segments, offset_past_encoding).
    """
    segments: list[str] = []
    while True:
        if data[offset : offset + 2] == _LOW_SENTINEL:
            return tuple(segments), offset + 2
        raw = bytearray()
        while True:
            if offset >= len(data):
                raise InvalidArgument("truncated doc name encoding")
            byte = data[offset]
            if byte != 0x00:
                raw.append(byte)
                offset += 1
                continue
            if offset + 1 >= len(data):
                raise InvalidArgument("truncated doc name encoding")
            marker = data[offset + 1]
            offset += 2
            if marker == 0xFF:
                raw.append(0x00)
            elif marker == 0x01:
                break
            else:
                raise InvalidArgument("corrupt doc name escape")
        segments.append(raw.decode("utf-8"))
