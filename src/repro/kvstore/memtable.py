"""Skiplist memtable.

The mutable in-memory stage of the LSM tree.  Entries are internal records
ordered by ``(user_key asc, sequence desc)`` so the newest visible version
of a key is the first one reached by a seek.  The skiplist gives O(log n)
insert and seek without any rebalancing, the same structure LevelDB uses.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.kvstore.record import InternalRecord, ValueType, make_record, record_sort_key

_MAX_HEIGHT = 12
_BRANCHING_BITS = 2  # a node reaches the next level up with probability 1/4


class _Node:
    __slots__ = ("record", "key", "next")

    def __init__(self, record: Optional[InternalRecord], key, height: int) -> None:
        self.record = record
        self.key = key
        self.next: list[Optional["_Node"]] = [None] * height


class MemTable:
    """An ordered, versioned, in-memory write buffer."""

    def __init__(self, rng_seed: int = 0) -> None:
        self._head = _Node(None, None, _MAX_HEIGHT)
        self._height = 1
        self._rng = random.Random(rng_seed)
        self._count = 0
        self._approximate_bytes = 0

    def __len__(self) -> int:
        return self._count

    @property
    def approximate_size(self) -> int:
        """Rough memory footprint in bytes, used for the flush trigger."""
        return self._approximate_bytes

    # -- writes ------------------------------------------------------------

    def add(self, sequence: int, kind: ValueType, user_key: bytes, value: bytes = b"") -> None:
        """Insert one internal record."""
        user_key = bytes(user_key)
        record = make_record(InternalRecord, (user_key, sequence, kind, bytes(value)))
        key = (user_key, -sequence)
        update: list[_Node] = [self._head] * _MAX_HEIGHT
        node = self._head
        for level in range(self._height - 1, -1, -1):
            following = node.next[level]
            while following is not None and following.key < key:
                node = following
                following = node.next[level]
            update[level] = node

        height = self._random_height()
        if height > self._height:
            for level in range(self._height, height):
                update[level] = self._head
            self._height = height

        new_node = _Node(record, key, height)
        for level in range(height):
            new_node.next[level] = update[level].next[level]
            update[level].next[level] = new_node
        self._count += 1
        self._approximate_bytes += len(user_key) + len(value) + 24

    def _random_height(self) -> int:
        # One draw decides every level: climb while the next bit group is zero.
        bits = self._rng.getrandbits(_BRANCHING_BITS * _MAX_HEIGHT)
        height = 1
        while height < _MAX_HEIGHT and not bits & ((1 << _BRANCHING_BITS) - 1):
            bits >>= _BRANCHING_BITS
            height += 1
        return height

    # -- reads ------------------------------------------------------------

    def _seek(self, key) -> Optional[_Node]:
        """First node whose sort key is >= ``key``."""
        node = self._head
        following = None
        for level in range(self._height - 1, -1, -1):
            following = node.next[level]
            while following is not None and following.key < key:
                node = following
                following = node.next[level]
        return following

    def get(self, user_key: bytes, sequence: int) -> Optional[InternalRecord]:
        """Newest record for ``user_key`` visible at ``sequence``.

        Returns the record (which may be a deletion tombstone) or ``None``
        if this memtable holds no visible version — the caller must then
        consult older tables.
        """
        node = self._seek(record_sort_key(bytes(user_key), sequence))
        if node is not None and node.record.user_key == user_key:
            return node.record
        return None

    def __iter__(self) -> Iterator[InternalRecord]:
        """All records in internal sort order."""
        node = self._head.next[0]
        while node is not None:
            yield node.record
            node = node.next[0]

    def iterate_from(self, user_key: bytes, sequence: int) -> Iterator[InternalRecord]:
        """Records at/after ``(user_key, sequence)`` in sort order."""
        node = self._seek(record_sort_key(bytes(user_key), sequence))
        while node is not None:
            yield node.record
            node = node.next[0]
