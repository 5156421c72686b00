"""Storage backends the LambdaObjects runtime commits through.

Two implementations share one protocol:

- :class:`MemoryBackend` — an ordered in-memory map (a dict plus a
  per-object key index that is sorted only when a scan needs it).  The
  cluster simulator uses it so benchmark runs are not dominated by host
  disk I/O.
- :class:`KVBackend` — the real LSM database from :mod:`repro.kvstore`
  (the paper persists through LevelDB).  Integration tests and the
  durability examples use it.

Both apply write batches atomically and return a commit sequence number,
which the replication layer uses for ordering.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, Optional, Protocol

from repro.core.keyspace import OBJECT_PREFIX_WIDTH
from repro.kvstore.batch import WriteBatch
from repro.kvstore.db import DB
from repro.kvstore.record import ValueType


class StorageBackend(Protocol):
    """What the runtime needs from a store."""

    def get(self, key: bytes) -> Optional[bytes]:
        """Committed value for ``key`` or ``None``."""
        ...

    def apply(self, batch: WriteBatch) -> int:
        """Apply atomically; returns the commit sequence number."""
        ...

    def iterate(self, start: bytes, end: Optional[bytes]) -> Iterator[tuple[bytes, bytes]]:
        """Committed ``(key, value)`` pairs in ``[start, end)``, ordered."""
        ...

    @property
    def last_sequence(self) -> int:
        """Sequence number of the most recent commit."""
        ...


class MemoryBackend:
    """Ordered in-memory storage: a dict plus a lazily sorted key index.

    Keys are bucketed by their first ``OBJECT_PREFIX_WIDTH`` bytes: one
    bucket per object under the ``o/<oid>/`` layout, and whatever a key
    starts with otherwise — truncation preserves order, so buckets in
    prefix order, each in key order, are all keys in key order whatever
    they look like (DESIGN.md §5n).  ``apply`` appends a new key to its
    bucket unsorted; a bucket is sorted when an ``iterate`` or a delete
    reaches it, the prefix list when a scan follows a new bucket.

    ``iterate`` snapshots each bucket's pairs as it reaches the bucket and
    looks the next bucket up afresh, so a generator left suspended across
    an ``apply`` still yields strictly increasing keys: the rest of its
    bucket as it was, every later bucket as it is when reached.
    """

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        #: bucket prefix -> its keys, in key order unless in ``_unsorted``
        self._buckets: dict[bytes, list[bytes]] = {}
        self._unsorted: set[bytes] = set()
        #: every bucket prefix, in order unless ``_prefixes_sorted`` is off
        self._prefixes: list[bytes] = []
        self._prefixes_sorted = True
        self._sequence = 0
        # Plain ints, not registry instruments: `get` is the hottest call in
        # the simulator, so platforms expose these via callback gauges.
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        self.applies = 0

    def get(self, key: bytes) -> Optional[bytes]:
        self.gets += 1
        return self._data.get(key)

    def _ordered_prefixes(self) -> list[bytes]:
        if not self._prefixes_sorted:
            self._prefixes.sort()
            self._prefixes_sorted = True
        return self._prefixes

    def _ordered_bucket(self, prefix: bytes) -> list[bytes]:
        keys = self._buckets[prefix]
        if prefix in self._unsorted:
            keys.sort()
            self._unsorted.discard(prefix)
        return keys

    def apply(self, batch: WriteBatch) -> int:
        data = self._data
        buckets = self._buckets
        put = ValueType.VALUE
        puts = deletes = 0
        for kind, key, value in batch.items():
            if kind is put:
                puts += 1
                if key not in data:
                    prefix = key[:OBJECT_PREFIX_WIDTH]
                    bucket = buckets.get(prefix)
                    if bucket is None:
                        buckets[prefix] = [key]
                        self._prefixes.append(prefix)
                        self._prefixes_sorted = False
                    else:
                        bucket.append(key)
                        self._unsorted.add(prefix)
                data[key] = value
                continue
            deletes += 1
            if key in data:
                del data[key]
                prefix = key[:OBJECT_PREFIX_WIDTH]
                keys = self._ordered_bucket(prefix)
                del keys[bisect_left(keys, key)]
                if not keys:
                    del buckets[prefix]
                    prefixes = self._ordered_prefixes()
                    del prefixes[bisect_left(prefixes, prefix)]
        self.applies += 1
        self.puts += puts
        self.deletes += deletes
        self._sequence += puts + deletes
        return self._sequence

    def iterate(self, start: bytes, end: Optional[bytes]) -> Iterator[tuple[bytes, bytes]]:
        data = self._data
        first = start[:OBJECT_PREFIX_WIDTH]
        last = None if end is None else end[:OBJECT_PREFIX_WIDTH]
        at = bisect_left(self._ordered_prefixes(), first)
        while at < len(self._prefixes):
            prefix = self._prefixes[at]
            if last is not None and prefix > last:
                return
            keys = self._ordered_bucket(prefix)
            low = bisect_left(keys, start) if prefix == first else 0
            high = bisect_left(keys, end) if prefix == last else len(keys)
            yield from [(key, data[key]) for key in keys[low:high]]
            # an apply may have run while this generator was suspended
            at = bisect_right(self._ordered_prefixes(), prefix)

    @property
    def last_sequence(self) -> int:
        return self._sequence

    def __len__(self) -> int:
        return len(self._data)

    def size_bytes(self) -> int:
        """Total payload held, for placement/migration heuristics."""
        return sum(len(k) + len(v) for k, v in self._data.items())


class KVBackend:
    """Storage through the persistent LSM database."""

    def __init__(self, db: DB) -> None:
        self._db = db
        self._sequence = db.last_sequence

    @property
    def db(self) -> DB:
        return self._db

    def get(self, key: bytes) -> Optional[bytes]:
        return self._db.get(key)

    def apply(self, batch: WriteBatch) -> int:
        self._db.write(batch)
        self._sequence = self._db.last_sequence
        return self._sequence

    def iterate(self, start: bytes, end: Optional[bytes]) -> Iterator[tuple[bytes, bytes]]:
        return self._db.iterate(start=start, end=end)

    @property
    def last_sequence(self) -> int:
        return self._sequence
