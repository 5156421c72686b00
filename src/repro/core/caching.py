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
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.fields import encode_value, value_digest
from repro.obs.registry import MetricsRegistry, StatsView

_ABSENT_DIGEST = b"\x00" * 8


def args_digest(args: tuple) -> bytes:
    """Stable digest of an invocation's arguments ("hash of its input")."""
    return hashlib.blake2b(encode_value(list(args)), digest_size=16).digest()


@dataclass
class CacheEntry:
    """One memoised function result."""

    value: Any
    read_set: dict[bytes, bytes]


class CacheStats(StatsView):
    """Result-cache counters (registry-backed labelled series)."""

    PREFIX = "cache"
    COUNTERS = {
        "hits": 0,
        "misses": 0,
        "invalidations": 0,
        "validation_failures": 0,
        "stores": 0,
        "installs": 0,
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
        # Preresolved counter handles: lookup() runs on every read-only
        # invocation, so increments must not pay the StatsView attribute
        # protocol (see StatsView.handle).
        self._c_hits = self.stats.cell("hits")
        self._c_misses = self.stats.cell("misses")
        self._c_validation_failures = self.stats.cell("validation_failures")
        self._c_invalidations = self.stats.cell("invalidations")
        self._c_stores = self.stats.cell("stores")
        self._c_installs = self.stats.cell("installs")
        #: optional hook fired after every locally-originated store()
        #: (NOT after install()) — the cluster layer uses it to piggyback
        #: fresh entries to the shard's other replicas
        self.on_store: Optional[Callable[[str, str, bytes, Any, dict], None]] = None
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
            self._c_misses.inc()
            return False, None
        for storage_key, expected_digest in entry.read_set.items():
            current = current_get(storage_key)
            current_digest = value_digest(current) if current is not None else _ABSENT_DIGEST
            if current_digest != expected_digest:
                self._c_validation_failures.inc()
                self._c_misses.inc()
                self._drop(cache_key)
                return False, None
        self._entries.move_to_end(cache_key)
        self._c_hits.inc()
        return True, entry.value

    # -- stores ------------------------------------------------------------

    def store(
        self, object_id: str, method: str, digest: bytes, value: Any, read_set: dict[bytes, bytes]
    ) -> None:
        """Memoise a result keyed by input hash, recording its read set."""
        self._insert(self._key(object_id, method, digest), value, read_set)
        self._c_stores.inc()
        if self.on_store is not None:
            self.on_store(str(object_id), method, digest, value, read_set)

    def install(
        self, object_id: str, method: str, digest: bytes, value: Any, read_set: dict[bytes, bytes]
    ) -> None:
        """Install an entry shared by another replica.

        Identical to :meth:`store` except it never notifies
        :attr:`on_store` (shared entries must not echo back to the wire)
        and counts separately.  The caller is responsible for validating
        the read set against *local* committed state first.
        """
        self._insert(self._key(object_id, method, digest), value, read_set)
        self._c_installs.inc()

    def _insert(self, cache_key: tuple, value: Any, read_set: dict[bytes, bytes]) -> None:
        self._drop(cache_key)
        while len(self._entries) >= self._max_entries:
            oldest_key = next(iter(self._entries))
            self._drop(oldest_key)
        self._entries[cache_key] = CacheEntry(value, dict(read_set))
        for storage_key in read_set:
            self._by_read_key.setdefault(storage_key, set()).add(cache_key)

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
        stale: list[tuple] = []
        for cache_key, entry in self._entries.items():
            for storage_key, expected_digest in entry.read_set.items():
                current = current_get(storage_key)
                current_digest = (
                    value_digest(current) if current is not None else _ABSENT_DIGEST
                )
                if current_digest != expected_digest:
                    stale.append(cache_key)
                    break
        return stale

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
