"""LEB128-style unsigned varint encoding used by on-disk formats."""

from __future__ import annotations

from repro.errors import CorruptionError

#: the one-byte encodings; lengths on disk are almost always below 128
_ONE_BYTE = tuple(bytes((value,)) for value in range(0x80))


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a little-endian base-128 varint."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def varint_length(value: int) -> int:
    """Bytes :func:`encode_varint` takes for a non-negative ``value``."""
    return (value.bit_length() + 6) // 7 or 1


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.
    """
    try:
        result = data[offset]
        if result < 0x80:
            return result, offset + 1
        result &= 0x7F
        shift = 7
        pos = offset + 1
        while shift <= 63:
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                return result, pos
            shift += 7
    except IndexError:
        raise CorruptionError("truncated varint") from None
    raise CorruptionError("varint too long")
