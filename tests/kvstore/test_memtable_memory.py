"""A memory budget for the memtable's bookkeeping.

A durable store's memtable holds every record written since its last
flush, once per replica, so what it adds per record beside the key and
value bytes is paid on every replica until the flush.  The budget counts
only what ``MemTable.add`` allocates, for follower-list records laid out
as the runtime lays them out (``o/<oid>/c/followers/<oid>`` keys,
``{"since":0}`` values): the keys and values are built beforehand, as a
decoded write batch holds them.
"""

import random
import tracemalloc

from repro.core.ids import ObjectId
from repro.core.keyspace import collection_key
from repro.kvstore.memtable import MemTable
from repro.kvstore.record import ValueType

USERS = 200
FOLLOWERS_PER_USER = 100
#: bytes ``add`` may allocate per record: one 4-tuple, its negated
#: sequence number and a list slot with its share of the list's growth
BYTES_PER_RECORD = 130
#: a running store's sequence numbers are far above the small-int cache
FIRST_SEQUENCE = 1_000_000


def _records() -> list[tuple[bytes, bytes]]:
    users = [ObjectId.from_name(f"memtable-budget-{n}") for n in range(USERS)]
    rng = random.Random(51)
    records = []
    for user in rng.sample(users, len(users)):
        for follower in sorted(rng.sample(users, FOLLOWERS_PER_USER)):
            records.append((collection_key(user, "followers", follower), b'{"since":0}'))
    return records


def test_add_allocates_at_most_the_budget_per_record():
    records = _records()
    mem = MemTable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for sequence, (key, value) in enumerate(records, start=FIRST_SEQUENCE):
            mem.add(sequence, ValueType.VALUE, key, value)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(mem) == len(records) == USERS * FOLLOWERS_PER_USER
    assert grown / len(records) <= BYTES_PER_RECORD, f"{grown / len(records):.1f} bytes per record"
