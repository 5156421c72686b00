"""Sorted data blocks with key prefix compression.

A block is a sequence of internal records in sort order.  Consecutive keys
usually share a prefix, so each entry stores only the non-shared suffix;
every ``restart_interval`` entries an entry is written with no sharing
(a *restart point*), which bounds how much context a reader needs.  The
block trailer lists restart offsets (unused by this eager reader, but kept
on disk for format fidelity) and a CRC protects the whole block.

Entry layout: ``varint shared | varint non_shared | varint value_len |
sequence:8 | kind:1 | key suffix | value``.  Flush and compaction push
every record through :meth:`BlockBuilder.add` and :meth:`Block.decode`,
so both treat the common entry, whose three lengths each fit one varint
byte, as one fixed 12-byte header packed or unpacked in a single call.
"""

from __future__ import annotations

import bisect
import struct
import zlib
from typing import Iterator, Optional

from repro.errors import CorruptionError
from repro.kvstore.record import (
    KINDS,
    MAX_SEQUENCE,
    SEQ_TYPE,
    InternalRecord,
    make_record,
    record_sort_key,
)
from repro.kvstore.varint import decode_varint, encode_varint

_U32 = struct.Struct(">I")
#: an entry header whose three varints are one byte each
_SHORT_HEADER = struct.Struct(">BBBQB")
#: the same with a two-byte value length (128 to 16,383 bytes)
_MEDIUM_HEADER = struct.Struct(">BBBBQB")
RESTART_INTERVAL = 16
_from_bytes = int.from_bytes


class BlockBuilder:
    """Accumulates sorted records into one encoded block."""

    def __init__(self, restart_interval: int = RESTART_INTERVAL) -> None:
        self._buffer = bytearray()
        self._restarts: list[int] = []
        self._restart_interval = restart_interval
        self._last_key = b""
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def add(self, record: InternalRecord) -> int:
        """Append a record; callers must add in internal sort order.

        Returns the bytes the finished block would occupy now (minus the
        CRC), which is what writers cut blocks by.
        """
        key, sequence, kind, value = record
        if not 0 <= sequence <= MAX_SEQUENCE:
            raise ValueError(f"sequence {sequence} out of range")
        buffer = self._buffer
        if self._count % self._restart_interval:
            shared = shared_prefix_length(self._last_key, key)
        else:
            self._restarts.append(len(buffer))
            shared = 0
        non_shared = len(key) - shared
        value_len = len(value)
        if shared < 0x80 and non_shared < 0x80 and value_len < 0x4000:
            if value_len < 0x80:
                buffer += _SHORT_HEADER.pack(shared, non_shared, value_len, sequence, kind)
            else:
                buffer += _MEDIUM_HEADER.pack(
                    shared, non_shared, value_len & 0x7F | 0x80, value_len >> 7, sequence, kind
                )
        else:
            buffer += encode_varint(shared)
            buffer += encode_varint(non_shared)
            buffer += encode_varint(value_len)
            buffer += SEQ_TYPE.pack(sequence, kind)
        buffer += key[shared:]
        buffer += value
        self._last_key = key
        self._count += 1
        return len(buffer) + 4 * len(self._restarts) + 4

    def finish(self) -> bytes:
        """Encode the block: entries, restart array, count, CRC."""
        restarts = self._restarts
        trailer = struct.pack(f">{len(restarts) + 1}I", *restarts, len(restarts))
        crc = zlib.crc32(trailer, zlib.crc32(self._buffer))
        return b"".join((self._buffer, trailer, _U32.pack(crc)))

    def reset(self) -> None:
        """Clear the builder for the next block."""
        self._buffer.clear()
        self._restarts.clear()
        self._last_key = b""
        self._count = 0


def shared_prefix_length(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix of ``a`` and ``b``.

    Both are read as big-endian integers and the longer one is cut to the
    shorter one's length; the first differing byte is then the highest
    set byte of their XOR.
    """
    length, other = len(a), len(b)
    head = _from_bytes(a, "big")
    other_head = _from_bytes(b, "big")
    if length > other:
        head >>= 8 * (length - other)
        length = other
    elif other > length:
        other_head >>= 8 * (other - length)
    return length - ((head ^ other_head).bit_length() + 7 >> 3)


class Block:
    """A decoded block supporting binary-search seeks.

    Decoding is eager: blocks are small (~4 KiB), and a reader decodes a
    block on every read of it and keeps none, so a decoded block lives
    only as long as the lookup or scan that asked for it.
    """

    def __init__(self, records: list[InternalRecord]) -> None:
        self._records = records

    @classmethod
    def decode(cls, data: bytes) -> "Block":
        """Parse and CRC-check an encoded block."""
        if len(data) < 12:
            raise CorruptionError("block too short")
        crc_at = len(data) - 4
        if zlib.crc32(memoryview(data)[:crc_at]) != _U32.unpack_from(data, crc_at)[0]:
            raise CorruptionError("block failed CRC check")
        (num_restarts,) = _U32.unpack_from(data, crc_at - 4)
        entries_end = crc_at - 4 - 4 * num_restarts
        if entries_end < 0:
            raise CorruptionError("block restart array overruns block")

        records: list[InternalRecord] = []
        append = records.append
        short_header = _SHORT_HEADER.unpack_from
        pos = 0
        last_key = b""
        last_key_len = 0
        while pos < entries_end:
            if pos + 12 > entries_end:  # no entry is shorter than its header
                raise CorruptionError("block entry truncated (header)")
            shared, non_shared, value_len, sequence, kind = short_header(data, pos)
            if shared | non_shared | value_len < 0x80:
                pos += 12
            elif shared | non_shared | data[pos + 3] < 0x80 and pos + 13 <= entries_end:
                _, _, low, high, sequence, kind = _MEDIUM_HEADER.unpack_from(data, pos)
                value_len = low & 0x7F | high << 7
                pos += 13
            else:
                shared, pos = decode_varint(data, pos)
                non_shared, pos = decode_varint(data, pos)
                value_len, pos = decode_varint(data, pos)
                if pos + 9 > entries_end:
                    raise CorruptionError("block entry truncated (seq/type)")
                sequence, kind = SEQ_TYPE.unpack_from(data, pos)
                pos += 9
            value_at = pos + non_shared
            end = value_at + value_len
            if end > entries_end:
                raise CorruptionError("block entry truncated (key/value)")
            if shared > last_key_len:
                raise CorruptionError("block entry shares more than previous key")
            last_key_len = shared + non_shared
            if kind > 1:
                raise CorruptionError(f"block entry has bad value type {kind}")
            key = last_key[:shared] + data[pos:value_at] if shared else data[pos:value_at]
            append(make_record(InternalRecord, (key, sequence, KINDS[kind], data[value_at:end])))
            last_key = key
            pos = end
        return cls(records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[InternalRecord]:
        return iter(self._records)

    def seek(self, user_key: bytes, sequence: int) -> int:
        """Index of the first record at/after ``(user_key, sequence)``."""
        return bisect.bisect_left(
            self._records, record_sort_key(user_key, sequence), key=InternalRecord.sort_key
        )

    def get(self, user_key: bytes, sequence: int) -> Optional[InternalRecord]:
        """Newest record for ``user_key`` visible at ``sequence``, if any."""
        index = self.seek(user_key, sequence)
        if index < len(self._records) and self._records[index].user_key == user_key:
            return self._records[index]
        return None

    def records_from(self, index: int) -> Iterator[InternalRecord]:
        """Iterate records starting at ``index``."""
        return iter(self._records[index:])
