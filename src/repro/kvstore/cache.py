"""Byte-budgeted LRU cache: the row cache in front of a DB's point reads.

There is no block cache: an SSTable reader decodes every block it reads
and keeps none (the simulation charges nothing for a local read, so a
cache would save only the decode and hold many decoded blocks).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional


@dataclass
class CacheStats:
    """Hit/miss counters, readable by benchmarks."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRUCache:
    """A byte-budgeted LRU cache.

    Entries carry an explicit ``charge`` (bytes); inserting past the budget
    evicts least-recently-used entries until the new entry fits.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"cache capacity must be > 0, got {capacity_bytes}")
        self._capacity = capacity_bytes
        self._entries: "OrderedDict[Hashable, tuple[Any, int]]" = OrderedDict()
        self._used = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value or ``None``; touches LRU order."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry[0]

    def put(self, key: Hashable, value: Any, charge: int) -> None:
        """Insert/replace an entry costing ``charge`` bytes."""
        if key in self._entries:
            self._used -= self._entries.pop(key)[1]
        # An entry larger than the whole cache is simply not retained.
        if charge > self._capacity:
            return
        while self._used + charge > self._capacity and self._entries:
            _, (_, evicted_charge) = self._entries.popitem(last=False)
            self._used -= evicted_charge
            self.stats.evictions += 1
        self._entries[key] = (value, charge)
        self._used += charge

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` if cached (not counted as an eviction).

        Used when a write touches a key: the row cache drops its row.
        """
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used -= entry[1]

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0
