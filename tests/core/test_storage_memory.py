"""A memory budget for ``MemoryBackend``'s index.

Every replica holds each key once per ``MemoryBackend``, so what the
index adds per key is paid once per replica: the key and value bytes
themselves are shared (one batch object reaches every replica).  The
budget counts only what ``apply`` allocates, for keys laid out as the
runtime lays them out, one object (one bucket) per batch, objects in
shuffled order.
"""

import random
import tracemalloc

from repro.core.ids import ObjectId
from repro.core.keyspace import (
    append_entry_key,
    collection_key,
    counter_key,
    meta_key,
    value_key,
)
from repro.core.storage import MemoryBackend
from repro.kvstore import WriteBatch

OBJECTS = 200
KEYS_PER_OBJECT = 100
#: bytes ``apply`` may allocate per key it adds: two list slots (key and
#: value) plus list growth and a share of each bucket's own objects
BYTES_PER_KEY = 28


def _object_batch(n: int) -> WriteBatch:
    oid = ObjectId.from_name(f"memory-budget-{n}")
    entries = KEYS_PER_OBJECT - 3
    batch = WriteBatch()
    batch.put(meta_key(oid), b"type=Account")
    batch.put(value_key(oid, "name"), b"user-%d" % n)
    batch.put(counter_key(oid, "posts"), b"%d" % entries)
    for counter in range(1, entries + 1):
        key = collection_key(oid, "posts", append_entry_key(counter))
        batch.put(key, b"post %d by user-%d" % (counter, n))
    return batch


def test_index_allocates_at_most_the_budget_per_key():
    batches = [_object_batch(n) for n in range(OBJECTS)]
    random.Random(50).shuffle(batches)
    backend = MemoryBackend()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for batch in batches:
            backend.apply(batch)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    keys = OBJECTS * KEYS_PER_OBJECT
    assert len(backend) == keys
    assert grown / keys <= BYTES_PER_KEY, f"{grown / keys:.1f} bytes per key"
