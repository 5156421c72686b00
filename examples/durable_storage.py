#!/usr/bin/env python3
"""LambdaObjects over the persistent LSM store (the LevelDB stand-in).

The paper's LambdaStore persists through LevelDB; this repository ships
a from-scratch LSM tree (:mod:`repro.kvstore`) with the same structure:
WAL, memtable, SSTables with bloom filters, leveled compaction and
point-in-time scans.  This example runs the object runtime on top of it and proves
the data survives a crash-and-reopen.

Run with::

    python examples/durable_storage.py
"""

import tempfile

from repro.core import (
    KVBackend,
    LocalRuntime,
    ObjectId,
    ObjectType,
    ValueField,
    method,
    readonly_method,
)
from repro.kvstore import DB, DBOptions


def counter_type():
    def bump(self):
        value = (self.get("value") or 0) + 1
        self.set("value", value)
        return value

    def read(self):
        return self.get("value") or 0

    return ObjectType(
        "DurableCounter",
        fields=[ValueField("value", default=0)],
        methods=[method(bump), readonly_method(read)],
    )


def main():
    directory = tempfile.mkdtemp(prefix="lambdaobjects-")
    oid = ObjectId.from_name("the-counter")
    # Small thresholds so even this demo exercises flush + compaction.
    options = DBOptions(memtable_size_bytes=4096, l0_compaction_trigger=2)

    print(f"opening LSM database at {directory}")
    with DB.open(directory, options) as db:
        runtime = LocalRuntime(storage=KVBackend(db))
        runtime.register_type(counter_type())
        runtime.create_object("DurableCounter", object_id=oid)
        for _ in range(500):
            runtime.invoke(oid, "bump")
        print(f"counter after 500 bumps: {runtime.invoke(oid, 'read')}")
        print(f"LSM level file counts: {db.level_file_counts()}")
        print(f"flushes: {db.stats.flushes}, compactions: {db.stats.compactions}")

    print("\ndatabase closed (simulating a restart)...")
    with DB.open(directory, options) as db:
        runtime = LocalRuntime(storage=KVBackend(db))
        runtime.register_type(counter_type())
        value = runtime.invoke(oid, "read")
        print(f"counter recovered from WAL + SSTables: {value}")
        assert value == 500
        runtime.invoke(oid, "bump")
        print(f"and it keeps counting: {runtime.invoke(oid, 'read')}")
        print(f"row cache hit rate: {db.row_cache_stats.hit_rate:.2f}")


if __name__ == "__main__":
    main()
