"""Consistent caching of deterministic read-only function results.

Paper §4.2.2: because data and computation are co-located, a storage node
can record "the output of a function, a hash of its input, and its read
set in the form of keys and value hashes", and re-execute only when the
input or the read data changed.

Two mechanisms keep cached results consistent:

- **validation** — a hit is only served after re-hashing every key in the
  entry's read set against the current committed state;
- **eager invalidation** — every commit drops entries whose read set
  intersects the written keys (via an inverted index), keeping the cache
  small and validation cheap.

Either mechanism alone is sufficient for correctness; both together are
how a production system would do it.

Every node keeps its own cache: a backup memoises the reads it serves
and invalidates as it applies replicated writes.  Entries never travel
between replicas.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.fields import ABSENT_DIGEST, encode_value, value_digest
from repro.obs.registry import MetricsRegistry, StatsView


def args_digest(args: tuple) -> bytes:
    """Stable digest of an invocation's arguments ("hash of its input")."""
    return hashlib.blake2b(encode_value(list(args)), digest_size=16).digest()


@dataclass
class CacheEntry:
    """One memoised function result."""

    value: Any
    read_set: dict[bytes, bytes]


class CacheStats(StatsView):
    """Result-cache counters (registry-backed labelled series).  Hits and
    misses are the runtime's ``cache_hits``/``cache_misses``, counted
    where the lookup's outcome is acted on."""

    PREFIX = "cache"
    COUNTERS = {
        "invalidations": 0,
        "validation_failures": 0,
        "stores": 0,
    }


class ResultCache:
    """LRU cache of (object, method, args) -> result with read-set validity."""

    def __init__(
        self,
        max_entries: int = 4096,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[dict] = None,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be > 0, got {max_entries}")
        self._max_entries = max_entries
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()
        #: inverted index: storage key -> cache keys whose read set uses it
        self._by_read_key: dict[bytes, set[tuple]] = {}
        self.stats = CacheStats(registry, labels)
        self._c_validation_failures = self.stats.handle("validation_failures")
        self._c_invalidations = self.stats.handle("invalidations")
        self._c_stores = self.stats.handle("stores")
        if registry is not None:
            registry.gauge("cache_entries", labels, fn=lambda: len(self._entries))

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _key(object_id: str, method: str, digest: bytes) -> tuple:
        return (str(object_id), method, digest)

    # -- lookup ------------------------------------------------------------

    def lookup(
        self,
        object_id: str,
        method: str,
        digest: bytes,
        current_get: Callable[[bytes], Optional[bytes]],
    ) -> tuple[bool, Any]:
        """Return ``(hit, value)``; validates the read set before serving."""
        cache_key = self._key(object_id, method, digest)
        entry = self._entries.get(cache_key)
        if entry is None:
            return False, None
        if not _matches(entry.read_set, current_get):
            self._c_validation_failures.inc()
            self._drop(cache_key)
            return False, None
        self._entries.move_to_end(cache_key)
        return True, entry.value

    # -- stores ------------------------------------------------------------

    def store(
        self, object_id: str, method: str, digest: bytes, value: Any, read_set: dict[bytes, bytes]
    ) -> None:
        """Memoise a result keyed by input hash, recording its read set."""
        cache_key = self._key(object_id, method, digest)
        self._drop(cache_key)
        while len(self._entries) >= self._max_entries:
            oldest_key = next(iter(self._entries))
            self._drop(oldest_key)
        self._entries[cache_key] = CacheEntry(value, dict(read_set))
        for storage_key in read_set:
            self._by_read_key.setdefault(storage_key, set()).add(cache_key)
        self._c_stores.inc()

    # -- invalidation -------------------------------------------------------

    def invalidate_keys(self, written_keys: list[bytes]) -> int:
        """Eagerly drop entries whose read set intersects ``written_keys``."""
        doomed: set[tuple] = set()
        by_read_key = self._by_read_key
        for storage_key in written_keys:
            readers = by_read_key.get(storage_key)
            if readers is not None:
                doomed |= readers
        for cache_key in doomed:
            self._drop(cache_key)
            self._c_invalidations.inc()
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()
        self._by_read_key.clear()

    # -- auditing -----------------------------------------------------------

    def stale_entries(
        self, current_get: Callable[[bytes], Optional[bytes]]
    ) -> list[tuple]:
        """Cache keys whose read set no longer matches committed state.

        With eager invalidation working correctly this is always empty:
        every commit drops intersecting entries.  A non-empty result means
        an invalidation was missed (read-set validation would still refuse
        to *serve* these entries, but the invariant is broken) — the
        chaos-harness consistency checker asserts on this.
        """
        return [
            cache_key
            for cache_key, entry in self._entries.items()
            if not _matches(entry.read_set, current_get)
        ]

    # -- internals ---------------------------------------------------------

    def _drop(self, cache_key: tuple) -> None:
        entry = self._entries.pop(cache_key, None)
        if entry is None:
            return
        for storage_key in entry.read_set:
            readers = self._by_read_key.get(storage_key)
            if readers is not None:
                readers.discard(cache_key)
                if not readers:
                    del self._by_read_key[storage_key]


def _matches(
    read_set: dict[bytes, bytes], current_get: Callable[[bytes], Optional[bytes]]
) -> bool:
    """Whether every key in ``read_set`` still has its recorded digest."""
    for storage_key, expected_digest in read_set.items():
        current = current_get(storage_key)
        if (value_digest(current) if current is not None else ABSENT_DIGEST) != expected_digest:
            return False
    return True
