"""Unit tests for the LRU block cache."""

import pytest

from repro.kvstore.cache import LRUCache


def test_get_miss_returns_none():
    cache = LRUCache(100)
    assert cache.get("missing") is None
    assert cache.stats.misses == 1


def test_put_get_hit():
    cache = LRUCache(100)
    cache.put("k", "value", charge=10)
    assert cache.get("k") == "value"
    assert cache.stats.hits == 1


def test_eviction_respects_lru_order():
    cache = LRUCache(30)
    cache.put("a", 1, charge=10)
    cache.put("b", 2, charge=10)
    cache.put("c", 3, charge=10)
    cache.get("a")  # touch a so b is the LRU entry
    cache.put("d", 4, charge=10)
    assert cache.get("b") is None
    assert cache.get("a") == 1


def test_oversized_entry_not_retained():
    cache = LRUCache(10)
    cache.put("huge", "x", charge=100)
    assert cache.get("huge") is None
    assert cache.used_bytes == 0


def test_replace_updates_charge():
    cache = LRUCache(100)
    cache.put("k", "v1", charge=40)
    cache.put("k", "v2", charge=20)
    assert cache.used_bytes == 20
    assert cache.get("k") == "v2"


def test_discard_drops_one_entry_and_its_charge():
    cache = LRUCache(100)
    cache.put((1, 0), "a", charge=10)
    cache.put((1, 4096), "b", charge=10)
    cache.put((2, 0), "c", charge=10)
    cache.discard((1, 0))
    cache.discard((1, 4096))
    cache.discard((3, 0))  # absent: a no-op
    assert cache.get((1, 0)) is None
    assert cache.get((1, 4096)) is None
    assert cache.get((2, 0)) == "c"
    assert cache.used_bytes == 10
    assert cache.stats.evictions == 0


def test_clear_resets():
    cache = LRUCache(100)
    cache.put("k", "v", charge=10)
    cache.clear()
    assert len(cache) == 0
    assert cache.used_bytes == 0


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_hit_rate():
    cache = LRUCache(100)
    cache.put("k", "v", charge=1)
    cache.get("k")
    cache.get("nope")
    assert cache.stats.hit_rate == pytest.approx(0.5)
