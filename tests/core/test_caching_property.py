"""Generative test: the ResultCache inverted index never drifts.

PR 1 fixed a stale-cache bug found by one nemesis reproduction; the bug
class — ``_by_read_key`` disagreeing with ``_entries`` after some
interleaving of store/lookup/invalidate/evict — deserves a generative
test.  A hypothesis state machine drives the cache through random
operation sequences against a tiny capacity (so LRU eviction triggers
constantly) and checks the bidirectional index invariant after every
step:

- every entry's read-set keys index back to it (no missed index adds);
- every indexed cache key exists and really reads that storage key
  (no leaked index entries after drop/evict/invalidate);
- the index holds no empty sets and the cache never exceeds capacity.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.caching import ResultCache
from repro.core.fields import ABSENT_DIGEST, encode_value, value_digest

MAX_ENTRIES = 4

OBJECTS = st.sampled_from(["obj-a", "obj-b"])
METHODS = st.sampled_from(["m1", "m2"])
DIGESTS = st.sampled_from([b"d1", b"d2", b"d3"])
STORAGE_KEYS = st.sampled_from([b"k1", b"k2", b"k3", b"k4", b"k5"])


class CacheIndexMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cache = ResultCache(max_entries=MAX_ENTRIES)
        #: committed state the cache validates against
        self.storage: dict[bytes, bytes] = {}

    def _current_get(self, key: bytes):
        return self.storage.get(key)

    def _read_set(self, keys: set[bytes]) -> dict[bytes, bytes]:
        """A read set consistent with current storage (as the runtime records)."""
        return {
            key: value_digest(self.storage[key])
            if key in self.storage
            else ABSENT_DIGEST
            for key in keys
        }

    @rule(
        object_id=OBJECTS,
        method=METHODS,
        digest=DIGESTS,
        value=st.integers(0, 100),
        keys=st.sets(STORAGE_KEYS, min_size=0, max_size=3),
    )
    def store(self, object_id, method, digest, value, keys):
        self.cache.store(object_id, method, digest, value, self._read_set(keys))

    @rule(object_id=OBJECTS, method=METHODS, digest=DIGESTS)
    def lookup(self, object_id, method, digest):
        self.cache.lookup(object_id, method, digest, self._current_get)

    @rule(key=STORAGE_KEYS, value=st.integers(0, 100))
    def commit_write(self, key, value):
        """A commit: mutate storage, then eagerly invalidate readers."""
        self.storage[key] = encode_value(value)
        self.cache.invalidate_keys([key])

    @rule(key=STORAGE_KEYS)
    def commit_delete(self, key):
        self.storage.pop(key, None)
        self.cache.invalidate_keys([key])

    @rule(key=STORAGE_KEYS, value=st.integers(0, 100))
    def write_without_invalidation(self, key, value):
        """A write the cache is *not* told about: later lookups must catch
        it via read-set validation and drop through that path too."""
        self.storage[key] = encode_value(value)

    @rule(keys=st.sets(STORAGE_KEYS, min_size=0, max_size=5))
    def invalidate_many(self, keys):
        self.cache.invalidate_keys(list(keys))

    @rule()
    def clear(self):
        self.cache.clear()

    @invariant()
    def index_matches_entries_exactly(self):
        cache = self.cache
        assert len(cache._entries) <= MAX_ENTRIES
        # forward: every entry is indexed under each of its read-set keys
        for cache_key, entry in cache._entries.items():
            for storage_key in entry.read_set:
                assert cache_key in cache._by_read_key.get(storage_key, set()), (
                    f"{cache_key} reads {storage_key!r} but is not indexed there"
                )
        # backward: every index entry points at a live entry that reads it
        for storage_key, readers in cache._by_read_key.items():
            assert readers, f"empty index set leaked for {storage_key!r}"
            for cache_key in readers:
                entry = cache._entries.get(cache_key)
                assert entry is not None, (
                    f"index for {storage_key!r} references dropped {cache_key}"
                )
                assert storage_key in entry.read_set


CacheIndexMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestCacheIndex = CacheIndexMachine.TestCase


class ReplicaCacheMachine(RuleBasedStateMachine):
    """Each replica's own cache stays coherent under ordered replication.

    A primary and a backup each memoise read-only results against their
    *own* committed state (a backup serves reads at its applied point);
    the primary's commits join an ordered replication stream that the
    backup applies, invalidating its readers, whenever it likes.  No
    entry ever moves between the two caches.  The invariants are the
    chaos checker's — ``stale_entries()`` stays empty on BOTH replicas
    after every step — and that a hit always returns what re-executing
    at that replica's current state would.
    """

    def __init__(self) -> None:
        super().__init__()
        self.primary = ResultCache(max_entries=MAX_ENTRIES)
        self.backup = ResultCache(max_entries=MAX_ENTRIES)
        self.primary_storage: dict[bytes, bytes] = {}
        self.backup_storage: dict[bytes, bytes] = {}
        #: committed writes awaiting backup apply, in commit order
        self.replication_queue: list[tuple[bytes, bytes | None]] = []

    @staticmethod
    def _execute(storage: dict[bytes, bytes], keys) -> tuple:
        """A deterministic read-only function: the values of ``keys``."""
        return tuple((key, storage.get(key)) for key in sorted(keys))

    @staticmethod
    def _read_set(storage: dict[bytes, bytes], keys) -> dict[bytes, bytes]:
        """The read set the runtime records for ``keys`` at ``storage``."""
        return {
            key: value_digest(storage[key]) if key in storage else ABSENT_DIGEST
            for key in keys
        }

    def _store(self, cache, storage, object_id, method, digest, keys) -> None:
        value = self._execute(storage, keys)
        cache.store(object_id, method, digest, value, self._read_set(storage, keys))

    def _lookup(self, cache, storage, object_id, method, digest) -> None:
        hit, value = cache.lookup(object_id, method, digest, storage.get)
        if hit:
            assert value == self._execute(storage, [key for key, _ in value])

    @rule(
        object_id=OBJECTS,
        method=METHODS,
        digest=DIGESTS,
        keys=st.sets(STORAGE_KEYS, min_size=0, max_size=3),
    )
    def primary_store(self, object_id, method, digest, keys):
        """A read-only invocation memoised at the primary."""
        self._store(self.primary, self.primary_storage, object_id, method, digest, keys)

    @rule(
        object_id=OBJECTS,
        method=METHODS,
        digest=DIGESTS,
        keys=st.sets(STORAGE_KEYS, min_size=0, max_size=3),
    )
    def backup_store(self, object_id, method, digest, keys):
        """A replica read memoised at the backup's applied point."""
        self._store(self.backup, self.backup_storage, object_id, method, digest, keys)

    @rule(object_id=OBJECTS, method=METHODS, digest=DIGESTS)
    def primary_lookup(self, object_id, method, digest):
        self._lookup(self.primary, self.primary_storage, object_id, method, digest)

    @rule(object_id=OBJECTS, method=METHODS, digest=DIGESTS)
    def backup_lookup(self, object_id, method, digest):
        self._lookup(self.backup, self.backup_storage, object_id, method, digest)

    @rule(key=STORAGE_KEYS, value=st.integers(0, 100))
    def primary_commit_write(self, key, value):
        """A commit at the primary: local apply + eager invalidation, and
        the write joins the ordered replication stream."""
        encoded = encode_value(value)
        self.primary_storage[key] = encoded
        self.primary.invalidate_keys([key])
        self.replication_queue.append((key, encoded))

    @rule(key=STORAGE_KEYS)
    def primary_commit_delete(self, key):
        self.primary_storage.pop(key, None)
        self.primary.invalidate_keys([key])
        self.replication_queue.append((key, None))

    @rule()
    def backup_apply_write(self):
        """The backup applies the next replicated write and invalidates
        readers — the store node's batch-apply path."""
        if not self.replication_queue:
            return
        key, encoded = self.replication_queue.pop(0)
        if encoded is None:
            self.backup_storage.pop(key, None)
        else:
            self.backup_storage[key] = encoded
        self.backup.invalidate_keys([key])

    @invariant()
    def no_replica_serves_stale_state(self):
        assert self.primary.stale_entries(self.primary_storage.get) == []
        assert self.backup.stale_entries(self.backup_storage.get) == []


ReplicaCacheMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestReplicaCache = ReplicaCacheMachine.TestCase
