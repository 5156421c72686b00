"""A memory budget for an open SSTable's index.

A reader keeps its table's index for as long as the table is open, and a
durable store keeps every live table open, on every replica.  The budget
counts what opening a reader leaves live, per index entry, for a table of
timeline posts laid out as the runtime lays them out
(``o/<oid>/c/timeline/<n>`` keys, 3.3 KB values: about two records, so
one index entry, per 4 KiB block).
"""

import tracemalloc

from repro.core.ids import ObjectId
from repro.core.keyspace import append_entry_key, collection_key
from repro.kvstore.record import MAX_SEQUENCE, InternalRecord, ValueType
from repro.kvstore.sstable import SSTableReader, SSTableWriter

USERS = 50
POSTS_PER_USER = 100
VALUE = b"p" * 3300
#: bytes a reader may keep per index entry: one 4-tuple, its key, the
#: negated sequence number, offset and size ints, and a list slot (the
#: filter, file object and footer fields are a few bytes per entry more)
BYTES_PER_ENTRY = 280
#: a running store's sequence numbers are far above the small-int cache
FIRST_SEQUENCE = 1_000_000


def _keys() -> list[bytes]:
    users = [ObjectId.from_name(f"sstable-budget-{n}") for n in range(USERS)]
    return sorted(
        collection_key(user, "timeline", append_entry_key(post))
        for user in users
        for post in range(1, POSTS_PER_USER + 1)
    )


def test_an_open_reader_keeps_at_most_the_budget_per_index_entry(tmp_path):
    path = str(tmp_path / "table.sst")
    keys = _keys()
    writer = SSTableWriter(path)
    for sequence, key in enumerate(keys, start=FIRST_SEQUENCE):
        writer.add(InternalRecord(key, sequence, ValueType.VALUE, VALUE))
    writer.finish()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reader = SSTableReader(path)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    try:
        entries = len(reader._index)
        assert entries >= len(keys) // 2  # about one block per two records
        assert reader.get(keys[-1], MAX_SEQUENCE).value == VALUE
    finally:
        reader.close()
    assert kept / entries <= BYTES_PER_ENTRY, f"{kept / entries:.1f} bytes per index entry"
