"""Sorted-list memtable.

The mutable in-memory stage of the LSM tree.  Entries are internal records
ordered by ``(user_key asc, sequence desc)`` so the newest visible version
of a key is the first one reached by a seek.  Each record is one tuple
``(user_key, -sequence, kind, value)`` in one sorted list searched with
``bisect`` (C speed; an insert is a ``memmove`` of pointers, and a key
above every other — the common case for ascending loads — is an append).
The pair ``(user_key, -sequence)`` is unique per record, so probes of that
pair order the list without ever comparing a kind or a value; ``get`` and
the iterators build the :class:`InternalRecord` they return.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, Optional

from repro.kvstore.record import InternalRecord, ValueType, make_record


class MemTable:
    """An ordered, versioned, in-memory write buffer."""

    def __init__(self) -> None:
        self._entries: list[tuple[bytes, int, ValueType, bytes]] = []
        self._approximate_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def approximate_size(self) -> int:
        """Rough memory footprint in bytes, used for the flush trigger."""
        return self._approximate_bytes

    # -- writes ------------------------------------------------------------

    def add(self, sequence: int, kind: ValueType, user_key: bytes, value: bytes = b"") -> None:
        """Insert one internal record."""
        user_key = bytes(user_key)
        value = bytes(value)
        entry = (user_key, -sequence, kind, value)
        entries = self._entries
        if not entries or entry > entries[-1]:
            entries.append(entry)
        else:
            insort(entries, entry)
        self._approximate_bytes += len(user_key) + len(value) + 24

    # -- reads ------------------------------------------------------------

    def get(self, user_key: bytes, sequence: int) -> Optional[InternalRecord]:
        """Newest record for ``user_key`` visible at ``sequence``.

        Returns the record (which may be a deletion tombstone) or ``None``
        if this memtable holds no visible version — the caller must then
        consult older tables.
        """
        entries = self._entries
        index = bisect_left(entries, (user_key, -sequence))
        if index < len(entries):
            key, negated, kind, value = entries[index]
            if key == user_key:
                return make_record(InternalRecord, (key, -negated, kind, value))
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
        # under it; the entry just yielded is then no longer at
        # ``index - 1``, and the iterator finds the first entry after it
        # again, so its output stays strictly increasing and includes what
        # was added ahead of it.  (A ``bisect_right`` on the 2-tuple would
        # land *on* that entry: a 4-tuple sorts after its own prefix.)
        entries = self._entries
        # The seek happens on the first ``next``, not at the call.
        index = 0 if start is None else bisect_left(entries, start)
        while index < len(entries):
            entry = entries[index]
            key, negated, kind, value = entry
            yield make_record(InternalRecord, (key, -negated, kind, value))
            index += 1
            if entries[index - 1] is not entry:
                index = bisect_left(entries, (key, negated + 1))
