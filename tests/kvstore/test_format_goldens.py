"""On-disk format goldens.

The sha256 constants below were recorded before the flush/compaction
record path was rebuilt (DESIGN.md §5l) and must never change with a
code change: they are what guarantees that an optimisation of the
writer, the WAL or compaction leaves every file byte-for-byte what it
was, and therefore leaves flush counts, compaction counts and bytes
written exactly where they are.  A deliberate format change replaces
them in a change of its own.
"""

import hashlib
import os
import random

from repro.kvstore import DB, DBOptions, WriteBatch
from repro.kvstore.record import InternalRecord, ValueType
from repro.kvstore.sstable import SSTableWriter
from repro.kvstore.wal import WALWriter

SSTABLE_SHA256 = "c6c317ef321780ddf28c5c0690d4a23336da169fa875633512c82d0883ea041a"
WAL_SHA256 = "f45d6acc170b235bbcd01e7a3384534aab667e051692f87d8e254263d9cbe749"
DB_DIRECTORY_SHA256 = "fb39c558c4f909f58abef0e1096b7b5d64c410692cee55b1df9a493d8111667c"


def golden_records(count=2000):
    """A fixed sorted stream: shared prefixes, several versions per key,
    tombstones, and values from 0 to 5,000 bytes (multi-byte varints and
    one-record blocks both occur)."""
    rng = random.Random(20220627)
    records = []
    sequence = 0
    while len(records) < count:
        prefix = b"o/%04d/" % rng.randrange(120)
        field = rng.choice([b"f/timeline/", b"f/posts/", b"n/", b"", b"\xff\x80"])
        key = prefix + field + b"%d" % rng.randrange(40)
        for _ in range(rng.choice([1, 1, 1, 2, 3, 6])):
            sequence += 1
            if rng.randrange(8) == 0:
                records.append(InternalRecord(key, sequence, ValueType.DELETION, b""))
            else:
                size = rng.choice([0, 1, 9, 60, 127, 128, 300, 3300, 5000])
                records.append(InternalRecord(key, sequence, ValueType.VALUE, rng.randbytes(size)))
    return sorted(records, key=lambda r: r.sort_key())


def golden_batches(count=60):
    """A fixed batch sequence: puts and deletes, empty to 5,000-byte values."""
    rng = random.Random(4865)
    batches = []
    for _ in range(count):
        batch = WriteBatch()
        for _ in range(rng.randrange(1, 12)):
            key = b"o/%03d/f/%d" % (rng.randrange(50), rng.randrange(20))
            if rng.randrange(6) == 0:
                batch.delete(key)
            else:
                batch.put(key, rng.randbytes(rng.choice([0, 5, 127, 128, 700, 5000])))
        batches.append(batch)
    return batches


def sha256_file(path):
    with open(path, "rb") as file:
        return hashlib.sha256(file.read()).hexdigest()


def sha256_directory(directory):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as file:
            content = file.read()
        digest.update(b"%s\0%d\0" % (name.encode(), len(content)))
        digest.update(content)
    return digest.hexdigest()


def test_sstable_bytes_are_golden(tmp_path):
    path = str(tmp_path / "golden.sst")
    writer = SSTableWriter(path)
    records = golden_records()
    for record in records:
        writer.add(record)
    meta = writer.finish()
    assert meta.entry_count == len(records) >= 2000
    assert sha256_file(path) == SSTABLE_SHA256


def test_wal_bytes_are_golden(tmp_path):
    path = str(tmp_path / "golden.log")
    sequence = 1
    with WALWriter(path) as wal:
        for batch in golden_batches():
            wal.append(sequence.to_bytes(8, "big") + batch.encode())
            sequence += len(batch)
    assert sha256_file(path) == WAL_SHA256


def test_db_directory_bytes_are_golden(tmp_path):
    """A scripted run: five flushes, one L0->L1 compaction that has to
    honour a live snapshot, then a close with data left in the WAL."""
    directory = str(tmp_path / "db")
    options = DBOptions(memtable_size_bytes=48 * 1024, l0_compaction_trigger=4)
    rng = random.Random(15)
    with DB.open(directory, options) as db:
        snapshot = None
        step = 0
        while db.stats.flushes < 5:
            batch = WriteBatch()
            for _ in range(rng.randrange(1, 6)):
                key = b"o/%03d/f/%d" % (rng.randrange(40), rng.randrange(12))
                if rng.randrange(7) == 0:
                    batch.delete(key)
                else:
                    batch.put(key, rng.randbytes(rng.choice([3, 40, 200, 3300])))
            db.write(batch)
            step += 1
            if step == 40:
                snapshot = db.snapshot()
        assert snapshot is not None and not snapshot.released
        assert db.stats.compactions == 1
        assert db.level_file_counts()[:2] == [1, 1]
        db.put(b"o/tail", b"left in the WAL")
        snapshot.release()
    assert sha256_directory(directory) == DB_DIRECTORY_SHA256
