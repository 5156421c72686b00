"""Sorted-list memtable.

The mutable in-memory stage of the LSM tree.  Entries are internal records
ordered by ``(user_key asc, sequence desc)`` so the newest visible version
of a key is the first one reached by a seek.  The order lives in one sorted
list of ``(user_key, -sequence)`` keys searched with ``bisect`` (C speed;
an insert is a ``memmove`` of pointers, and a key above every other — the
common case for ascending loads — is an append), the records in a dict
beside it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator, Optional

from repro.kvstore.record import InternalRecord, ValueType, make_record


class MemTable:
    """An ordered, versioned, in-memory write buffer."""

    def __init__(self) -> None:
        self._keys: list[tuple[bytes, int]] = []
        self._records: dict[tuple[bytes, int], InternalRecord] = {}
        self._approximate_bytes = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def approximate_size(self) -> int:
        """Rough memory footprint in bytes, used for the flush trigger."""
        return self._approximate_bytes

    # -- writes ------------------------------------------------------------

    def add(self, sequence: int, kind: ValueType, user_key: bytes, value: bytes = b"") -> None:
        """Insert one internal record."""
        user_key = bytes(user_key)
        value = bytes(value)
        key = (user_key, -sequence)
        keys = self._keys
        if not keys or key > keys[-1]:
            keys.append(key)
        else:
            insort(keys, key)
        self._records[key] = make_record(InternalRecord, (user_key, sequence, kind, value))
        self._approximate_bytes += len(user_key) + len(value) + 24

    # -- reads ------------------------------------------------------------

    def get(self, user_key: bytes, sequence: int) -> Optional[InternalRecord]:
        """Newest record for ``user_key`` visible at ``sequence``.

        Returns the record (which may be a deletion tombstone) or ``None``
        if this memtable holds no visible version — the caller must then
        consult older tables.
        """
        keys = self._keys
        index = bisect_left(keys, (user_key, -sequence))
        if index < len(keys):
            key = keys[index]
            if key[0] == user_key:
                return self._records[key]
        return None

    def __iter__(self) -> Iterator[InternalRecord]:
        """All records in internal sort order."""
        return self._iterate(None)

    def iterate_from(self, user_key: bytes, sequence: int) -> Iterator[InternalRecord]:
        """Records at/after ``(user_key, sequence)`` in sort order."""
        return self._iterate((bytes(user_key), -sequence))

    def _iterate(self, start: Optional[tuple[bytes, int]]) -> Iterator[InternalRecord]:
        # An iterator may be left suspended while records are added (a scan
        # whose consumer writes).  An insert below ``index`` shifts the list
        # under it; the key just yielded is then no longer at ``index - 1``,
        # and the iterator finds its place again, so its output stays
        # strictly increasing and includes what was added ahead of it.
        keys = self._keys
        records = self._records
        # The seek happens on the first ``next``, not at the call.
        index = 0 if start is None else bisect_left(keys, start)
        while index < len(keys):
            key = keys[index]
            yield records[key]
            index += 1
            if keys[index - 1] is not key:
                index = bisect_right(keys, key)
