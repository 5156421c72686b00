"""Internal record representation and key ordering.

Every user-visible write becomes an *internal record*: the user key plus a
monotonically increasing sequence number and a value type (a put or a
deletion tombstone).  Internal records order by user key ascending, then
sequence number **descending**, so the newest version of a key is always
encountered first during scans — the same trick LevelDB uses.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Optional


class ValueType(IntEnum):
    """Kind of an internal record."""

    DELETION = 0
    VALUE = 1


#: Sequence number given to reads that want "latest committed".
MAX_SEQUENCE = (1 << 56) - 1

#: sequence + type as stored in an SSTable entry (9 bytes)
SEQ_TYPE = struct.Struct(">QB")
#: ``KINDS[byte]`` is the value type an SSTable entry stores as ``byte``
KINDS = (ValueType.DELETION, ValueType.VALUE)


class InternalRecord(NamedTuple):
    """One versioned entry in the LSM tree.

    A plain tuple underneath: the flush and compaction loops unpack it
    and index it (``record[0]`` is the user key, ``record[1]`` the
    sequence) without a Python-level call per field.
    """

    user_key: bytes
    sequence: int
    kind: ValueType
    value: bytes = b""

    def sort_key(self) -> tuple[bytes, int]:
        """Total-order key: user key ascending, newest version first."""
        return (self[0], -self[1])

    @property
    def is_deletion(self) -> bool:
        return self[2] == ValueType.DELETION


#: ``make_record(InternalRecord, (user_key, sequence, kind, value))``
#: builds a record without entering the generated ``__new__``.
make_record = tuple.__new__


def record_sort_key(user_key: bytes, sequence: int) -> tuple[bytes, int]:
    """Sort key for a (user key, sequence) probe, matching
    :meth:`InternalRecord.sort_key`."""
    return (user_key, -sequence)


@dataclass(frozen=True)
class KeyRange:
    """Inclusive key range covered by an SSTable file."""

    smallest: bytes
    largest: bytes

    def overlaps(self, start: Optional[bytes], end: Optional[bytes]) -> bool:
        """Overlap test against a [start, end) user-key range.

        ``None`` bounds are unbounded on that side.
        """
        if end is not None and self.smallest >= end:
            return False
        if start is not None and self.largest < start:
            return False
        return True
