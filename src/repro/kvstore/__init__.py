"""An embedded, persistent, LevelDB-like key-value store.

This is the durability substrate LambdaStore persists objects through
(the paper uses LevelDB; see DESIGN.md §2 for the substitution notes).
It is a from-scratch LSM tree:

- writes go to a CRC-framed write-ahead log and a sorted-list memtable;
- full memtables flush to immutable SSTables (sorted blocks with prefix
  compression, a block index, and a bloom filter);
- a leveled compactor merges tables down the tree in bounded (2 MiB)
  tables, moves a table that overlaps nothing below it, and drops
  shadowed versions not needed by any live snapshot;
- point reads at the head consult a row cache, then the memtable, then
  level files newest-first, through an LRU block cache;
- a manifest records the live file set so ``DB.open`` recovers after a
  crash (WAL replay + manifest reload).

Public API::

    with DB.open(path) as db:
        db.put(b"k", b"v")
        batch = WriteBatch()
        batch.put(b"a", b"1"); batch.delete(b"k")
        db.write(batch)                  # atomic
        snap = db.snapshot()
        db.get(b"a", snapshot=snap)
        for key, value in db.iterate(b"a", b"z"):
            ...
"""

from repro.kvstore.batch import WriteBatch
from repro.kvstore.db import DB, DBOptions

__all__ = ["DB", "DBOptions", "WriteBatch"]
