"""Storage backends the LambdaObjects runtime commits through.

Two implementations share one protocol:

- :class:`MemoryBackend` — an ordered in-memory map: per object (one
  microshard), its keys and values in two parallel lists kept sorted.
  The cluster simulator uses it so benchmark runs are not dominated by
  host disk I/O.
- :class:`KVBackend` — the real LSM database from :mod:`repro.kvstore`
  (the paper persists through LevelDB).  Integration tests and the
  durability examples use it.

Both apply write batches atomically.  Replication orders batches
itself (the group-commit pipeline in :mod:`repro.cluster.replication`);
no backend sequence number is read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import Iterator, Optional, Protocol

from repro.core.keyspace import OBJECT_PREFIX_WIDTH
from repro.kvstore.batch import WriteBatch
from repro.kvstore.db import DB
from repro.kvstore.record import ValueType
from repro.obs.registry import MetricsRegistry


class StorageBackend(Protocol):
    """What the runtime needs from a store."""

    def get(self, key: bytes) -> Optional[bytes]:
        """Committed value for ``key`` or ``None``."""
        ...

    def apply(self, batch: WriteBatch) -> None:
        """Apply atomically."""
        ...

    def iterate(self, start: bytes, end: Optional[bytes]) -> Iterator[tuple[bytes, bytes]]:
        """Committed ``(key, value)`` pairs in ``[start, end)``, ordered."""
        ...

    def tail(self, start: bytes, end: Optional[bytes], limit: int) -> list[tuple[bytes, bytes]]:
        """The last ``limit`` committed pairs of ``[start, end)``, newest
        (greatest key) first: ``list(iterate(start, end))[::-1][:limit]``.

        A collection scan's read set is the collection's version stamp
        plus the entries the scan returns, and nothing else: every
        mutation of a collection bumps its stamp, so an entry the guest
        never saw adds no validity information.  A newest-first scan with
        a limit (GetTimeline) therefore reads through this call and keeps
        ``limit`` entries, not the whole collection.
        """
        ...


class MemoryBackend:
    """Ordered in-memory storage: one sorted run per microshard.

    Keys are bucketed by their first ``OBJECT_PREFIX_WIDTH`` bytes: one
    bucket per object under the ``o/<oid>/`` layout, and whatever a key
    starts with otherwise — truncation preserves order, so buckets in
    prefix order, each in key order, are all keys in key order whatever
    they look like (DESIGN.md §5n).  A bucket is two parallel lists, its
    keys and their values, in key order at all times: ``get`` and
    ``apply`` bisect the keys, and ``apply`` overwrites, inserts or
    removes in place.  The list of bucket prefixes is sorted when a scan
    follows a new bucket or a delete empties one.

    ``iterate`` copies each bucket's pairs in range as it reaches the
    bucket and looks the next bucket up afresh, so a generator left
    suspended across an ``apply`` still yields strictly increasing keys:
    the rest of its bucket as it was, every later bucket as it is when
    reached.
    """

    def __init__(self) -> None:
        #: bucket prefix -> (keys, values), parallel lists in key order;
        #: a bucket is never empty
        self._buckets: dict[bytes, tuple[list[bytes], list[bytes]]] = {}
        #: every bucket prefix, in order unless ``_prefixes_sorted`` is off
        self._prefixes: list[bytes] = []
        self._prefixes_sorted = True
        self._count = 0
        # Plain ints, not registry instruments: `get` is the hottest call in
        # the simulator, so `register_gauges` exposes them as callbacks.
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        self.applies = 0

    def get(self, key: bytes) -> Optional[bytes]:
        self.gets += 1
        bucket = self._buckets.get(key[:OBJECT_PREFIX_WIDTH])
        if bucket is None:
            return None
        keys = bucket[0]
        at = bisect_left(keys, key)
        if at < len(keys) and keys[at] == key:
            return bucket[1][at]
        return None

    def _ordered_prefixes(self) -> list[bytes]:
        if not self._prefixes_sorted:
            self._prefixes.sort()
            self._prefixes_sorted = True
        return self._prefixes

    def apply(self, batch: WriteBatch) -> None:
        buckets = self._buckets
        put = ValueType.VALUE
        width = OBJECT_PREFIX_WIDTH
        puts = deletes = added = 0
        # The bucket is resolved once per run of keys that share a prefix:
        # a method writes only its own object, so a batch is almost always
        # one bucket.  Only a full-width prefix is reused: a shorter key
        # may be a proper prefix of the next one, in another bucket.
        cached = None
        for kind, key, value in batch.items():
            if cached is None or not key.startswith(cached):
                prefix = key[:width]
                bucket = buckets.get(prefix)
                keys, values = ([], []) if bucket is None else bucket
                cached = prefix if len(prefix) == width else None
            at = bisect_left(keys, key)
            found = at < len(keys) and keys[at] == key
            if kind is put:
                puts += 1
                if found:
                    values[at] = value
                    continue
                if not keys:  # a new bucket, or one this batch emptied
                    buckets[prefix] = (keys, values)
                    self._prefixes.append(prefix)
                    self._prefixes_sorted = False
                keys.insert(at, key)
                values.insert(at, value)
                added += 1
                continue
            deletes += 1
            if found:
                del keys[at]
                del values[at]
                added -= 1
                if not keys:
                    del buckets[prefix]
                    prefixes = self._ordered_prefixes()
                    del prefixes[bisect_left(prefixes, prefix)]
        self._count += added
        self.applies += 1
        self.puts += puts
        self.deletes += deletes

    def iterate(self, start: bytes, end: Optional[bytes]) -> Iterator[tuple[bytes, bytes]]:
        first = start[:OBJECT_PREFIX_WIDTH]
        last = None if end is None else end[:OBJECT_PREFIX_WIDTH]
        at = bisect_left(self._ordered_prefixes(), first)
        while at < len(self._prefixes):
            prefix = self._prefixes[at]
            if last is not None and prefix > last:
                return
            keys, values = self._buckets[prefix]
            low = bisect_left(keys, start) if prefix == first else 0
            high = bisect_left(keys, end) if prefix == last else len(keys)
            yield from list(zip(keys[low:high], values[low:high]))
            # an apply may have run while this generator was suspended
            at = bisect_right(self._ordered_prefixes(), prefix)

    def tail(self, start: bytes, end: Optional[bytes], limit: int) -> list[tuple[bytes, bytes]]:
        first = start[:OBJECT_PREFIX_WIDTH]
        last = None if end is None else end[:OBJECT_PREFIX_WIDTH]
        prefixes = self._ordered_prefixes()
        at = len(prefixes) if last is None else bisect_right(prefixes, last)
        out: list[tuple[bytes, bytes]] = []
        while at > 0 and len(out) < limit:
            at -= 1
            prefix = prefixes[at]
            if prefix < first:
                break
            keys, values = self._buckets[prefix]
            low = bisect_left(keys, start) if prefix == first else 0
            high = bisect_left(keys, end) if prefix == last else len(keys)
            low = max(low, high - (limit - len(out)))
            out.extend(zip(reversed(keys[low:high]), reversed(values[low:high])))
        return out

    def __len__(self) -> int:
        return self._count

    def size_bytes(self) -> int:
        """Total payload held, for placement/migration heuristics."""
        return sum(
            sum(map(len, keys)) + sum(map(len, values))
            for keys, values in self._buckets.values()
        )

    def register_gauges(self, registry: MetricsRegistry, labels: dict) -> None:
        """Expose the op counters and the bytes held as ``kvstore_*``
        callback gauges (a ``DB`` registers its own instruments)."""
        for op in ("gets", "puts", "deletes", "applies"):
            registry.gauge(f"kvstore_{op}", labels, fn=lambda attr=op: getattr(self, attr))
        registry.gauge("kvstore_size_bytes", labels, fn=self.size_bytes)


class KVBackend:
    """Storage through the persistent LSM database."""

    def __init__(self, db: DB) -> None:
        self._db = db

    @property
    def db(self) -> DB:
        return self._db

    def get(self, key: bytes) -> Optional[bytes]:
        return self._db.get(key)

    def apply(self, batch: WriteBatch) -> None:
        self._db.write(batch)

    def iterate(self, start: bytes, end: Optional[bytes]) -> Iterator[tuple[bytes, bytes]]:
        return self._db.iterate(start=start, end=end)

    def tail(self, start: bytes, end: Optional[bytes], limit: int) -> list[tuple[bytes, bytes]]:
        # The LSM store iterates forward only: same I/O as a full scan,
        # memory bounded by ``limit``.
        if limit <= 0:
            return []
        return list(reversed(deque(self._db.iterate(start=start, end=end), maxlen=limit)))
