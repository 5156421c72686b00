"""End-to-end tests for the DB facade."""

import os

import pytest

from repro.errors import DBClosedError
from repro.kvstore import DB, DBOptions, WriteBatch


@pytest.fixture()
def db(tmp_path):
    with DB.open(str(tmp_path / "db")) as database:
        yield database


def small_options(**overrides):
    defaults = dict(
        memtable_size_bytes=4096,
        block_cache_bytes=64 * 1024,
        level_base_bytes=16 * 1024,
        l0_compaction_trigger=3,
    )
    defaults.update(overrides)
    return DBOptions(**defaults)


def test_put_get(db):
    db.put(b"key", b"value")
    assert db.get(b"key") == b"value"


def test_get_missing_returns_none(db):
    assert db.get(b"missing") is None


def test_overwrite(db):
    db.put(b"k", b"v1")
    db.put(b"k", b"v2")
    assert db.get(b"k") == b"v2"


def test_delete(db):
    db.put(b"k", b"v")
    db.delete(b"k")
    assert db.get(b"k") is None


def test_delete_missing_is_ok(db):
    db.delete(b"never-existed")
    assert db.get(b"never-existed") is None


def test_batch_is_atomic_in_order(db):
    batch = WriteBatch()
    batch.put(b"a", b"1")
    batch.put(b"a", b"2")  # later op in the same batch wins
    batch.delete(b"b")
    db.write(batch)
    assert db.get(b"a") == b"2"
    assert db.get(b"b") is None


def test_empty_batch_noop(db):
    before = db.last_sequence
    db.write(WriteBatch())
    assert db.last_sequence == before


def test_iterate_sorted(db):
    for key in [b"c", b"a", b"b"]:
        db.put(key, b"v-" + key)
    assert [k for k, _ in db.iterate()] == [b"a", b"b", b"c"]


def test_iterate_range_bounds(db):
    for i in range(10):
        db.put(b"k%02d" % i, b"v")
    keys = [k for k, _ in db.iterate(start=b"k03", end=b"k07")]
    assert keys == [b"k03", b"k04", b"k05", b"k06"]


def test_iterate_skips_deleted(db):
    db.put(b"a", b"1")
    db.put(b"b", b"2")
    db.delete(b"a")
    assert [k for k, _ in db.iterate()] == [b"b"]


def test_snapshot_isolates_reads(db):
    db.put(b"k", b"old")
    with db.snapshot() as snap:
        db.put(b"k", b"new")
        assert db.get(b"k", snapshot=snap) == b"old"
        assert db.get(b"k") == b"new"


def test_snapshot_sees_through_flush_and_compaction(tmp_path):
    with DB.open(str(tmp_path / "db"), small_options()) as db:
        db.put(b"k", b"old")
        snap = db.snapshot()
        for i in range(500):
            db.put(b"fill%04d" % i, b"x" * 64)
        db.put(b"k", b"new")
        db.flush()
        assert db.get(b"k", snapshot=snap) == b"old"
        snap.release()


def test_flush_creates_l0_file(tmp_path):
    with DB.open(str(tmp_path / "db")) as db:
        db.put(b"k", b"v")
        db.flush()
        assert db.level_file_counts()[0] == 1
        assert db.get(b"k") == b"v"


def test_reopen_recovers_from_wal(tmp_path):
    path = str(tmp_path / "db")
    with DB.open(path) as db:
        db.put(b"durable", b"yes")
        db.put(b"gone", b"x")
        db.delete(b"gone")
    with DB.open(path) as db:
        assert db.get(b"durable") == b"yes"
        assert db.get(b"gone") is None


def test_reopen_recovers_from_sstables(tmp_path):
    path = str(tmp_path / "db")
    with DB.open(path) as db:
        for i in range(100):
            db.put(b"key%03d" % i, b"value%03d" % i)
        db.flush()
    with DB.open(path) as db:
        for i in range(100):
            assert db.get(b"key%03d" % i) == b"value%03d" % i


def test_reopen_preserves_sequence_monotonicity(tmp_path):
    path = str(tmp_path / "db")
    with DB.open(path) as db:
        db.put(b"a", b"1")
        seq_before = db.last_sequence
    with DB.open(path) as db:
        assert db.last_sequence >= seq_before
        db.put(b"b", b"2")
        assert db.last_sequence > seq_before


def test_many_writes_trigger_flush_and_compaction(tmp_path):
    with DB.open(str(tmp_path / "db"), small_options()) as db:
        for i in range(2000):
            db.put(b"key%05d" % (i % 500), b"value-%05d" % i)
        assert db.stats.flushes > 0
        # Every key must read back its newest value through all levels.
        for i in range(500):
            expected = b"value-%05d" % (1500 + i)
            assert db.get(b"key%05d" % i) == expected


def test_compaction_reclaims_files(tmp_path):
    with DB.open(str(tmp_path / "db"), small_options()) as db:
        for i in range(3000):
            db.put(b"key%05d" % (i % 200), b"x" * 100)
        db.flush()
        live = {f for f in os.listdir(str(tmp_path / "db")) if f.endswith(".sst")}
        assert len(live) == sum(db.level_file_counts())


def test_deletes_survive_compaction(tmp_path):
    with DB.open(str(tmp_path / "db"), small_options()) as db:
        for i in range(300):
            db.put(b"key%04d" % i, b"v" * 50)
        db.flush()
        db.delete(b"key0100")
        db.flush()
        db.compact_range(0)
        assert db.get(b"key0100") is None
        assert db.get(b"key0101") is not None


def test_operations_after_close_raise(tmp_path):
    db = DB.open(str(tmp_path / "db"))
    db.close()
    with pytest.raises(DBClosedError):
        db.put(b"k", b"v")
    with pytest.raises(DBClosedError):
        db.get(b"k")
    db.close()  # idempotent


def test_iterate_merges_memtable_and_tables(tmp_path):
    with DB.open(str(tmp_path / "db")) as db:
        db.put(b"a", b"flushed")
        db.flush()
        db.put(b"b", b"in-mem")
        db.put(b"a", b"updated")
        assert list(db.iterate()) == [(b"a", b"updated"), (b"b", b"in-mem")]


def test_stats_counters(tmp_path):
    with DB.open(str(tmp_path / "db")) as db:
        db.put(b"a", b"1")
        db.delete(b"a")
        db.get(b"a")
        assert db.stats.puts == 1
        assert db.stats.deletes == 1
        assert db.stats.gets == 1


def test_large_values_roundtrip(tmp_path):
    with DB.open(str(tmp_path / "db")) as db:
        big = os.urandom(256 * 1024)
        db.put(b"big", big)
        db.flush()
        assert db.get(b"big") == big


def test_stats_count_puts_and_deletes_per_batch_item(tmp_path):
    with DB.open(str(tmp_path / "db")) as db:
        batch = WriteBatch()
        batch.put(b"a", b"1").put(b"b", b"2").delete(b"a").put(b"c", b"3")
        db.write(batch)
        only_deletes = WriteBatch()
        only_deletes.delete(b"b").delete(b"nothing")
        db.write(only_deletes)
        assert (db.stats.puts, db.stats.deletes) == (3, 3)
    # Recovery replays the WAL without counting: stats reset at open.
    with DB.open(str(tmp_path / "db")) as db:
        assert (db.stats.puts, db.stats.deletes) == (0, 0)
        assert db.get(b"c") == b"3" and db.get(b"a") is None


class _WriterSpy:
    """Makes every SSTableWriter the DB creates fail, and remembers them."""

    def __init__(self, monkeypatch, fail_in):
        from repro.kvstore import db as db_module
        from repro.kvstore.sstable import SSTableWriter

        self.writers = []
        spy = self

        class FailingWriter(SSTableWriter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spy.writers.append(self)

            def add(self, record):
                if fail_in == "add" and self.entry_count == 3:
                    raise OSError("disk full (injected)")
                super().add(record)

            def finish(self):
                if fail_in == "finish":
                    raise OSError("fsync failed (injected)")
                return super().finish()

        monkeypatch.setattr(db_module, "SSTableWriter", FailingWriter)


def table_files(directory):
    return sorted(name for name in os.listdir(directory) if name.endswith(".sst"))


@pytest.mark.parametrize("fail_in", ["add", "finish"])
def test_failed_flush_leaves_no_partial_table(tmp_path, monkeypatch, fail_in):
    directory = str(tmp_path / "db")
    with DB.open(directory) as db:
        for i in range(20):
            db.put(b"key%02d" % i, b"v" * 100)
        with monkeypatch.context() as patch:
            spy = _WriterSpy(patch, fail_in)
            with pytest.raises(OSError, match="injected"):
                db.flush()
        assert len(spy.writers) == 1 and spy.writers[0]._file.closed
        assert table_files(directory) == []
        # Nothing was lost: the memtable is intact and a retry succeeds.
        assert db.get(b"key07") == b"v" * 100
        db.flush()
        assert len(table_files(directory)) == 1
        assert db.get(b"key07") == b"v" * 100
        assert db.verify_integrity()["records"] == 20


@pytest.mark.parametrize("fail_in", ["add", "finish"])
def test_failed_compaction_leaves_no_partial_table(tmp_path, monkeypatch, fail_in):
    directory = str(tmp_path / "db")
    with DB.open(directory, small_options(l0_compaction_trigger=100)) as db:
        for round_number in range(3):
            for i in range(10):
                db.put(b"key%02d" % i, b"round-%d" % round_number)
            db.flush()
        before = table_files(directory)
        assert len(before) == 3
        with monkeypatch.context() as patch:
            spy = _WriterSpy(patch, fail_in)
            with pytest.raises(OSError, match="injected"):
                db.compact_range(0)
        assert len(spy.writers) == 1 and spy.writers[0]._file.closed
        assert table_files(directory) == before
        assert db.level_file_counts()[:2] == [3, 0]
        db.compact_range(0)
        assert db.level_file_counts()[:2] == [0, 1]
        assert db.get(b"key03") == b"round-2"


def test_compaction_reads_bypass_the_block_cache(tmp_path):
    """A merge uses cached blocks but adds none (LevelDB's fill_cache=false),
    and deleting its inputs drops exactly their blocks."""
    options = small_options(l0_compaction_trigger=100, block_cache_bytes=1 << 20)
    with DB.open(str(tmp_path / "db"), options) as db:
        for round_number in range(3):
            for i in range(200):
                db.put(b"key%03d" % i, b"%d" % round_number * 40)
            db.flush()
        for i in range(0, 200, 7):
            assert db.get(b"key%03d" % i) == b"2" * 40
        cache = db._block_cache
        cached_before = len(cache)
        assert cached_before > 0
        misses_before = cache.stats.misses
        db.verify_integrity()
        assert len(cache) == cached_before  # the scan decoded many blocks, kept none
        assert cache.stats.misses > misses_before
        hits_before = cache.stats.hits
        db.compact_range(0)
        assert cache.stats.hits > hits_before  # cached input blocks were used
        assert len(cache) == 0 and cache.used_bytes == 0  # all inputs are gone
        assert db.get(b"key008") == b"2" * 40  # not read above: past the row cache
        assert len(cache) == 1


def test_row_cache_never_serves_a_stale_row(tmp_path):
    with DB.open(str(tmp_path / "db"), small_options()) as db:
        rows = db.row_cache_stats
        assert db.get(b"k") is None and db.get(b"k") is None  # a miss is cached too
        assert (rows.hits, rows.misses) == (1, 1)
        db.put(b"k", b"v1")
        assert db.get(b"k") == b"v1" and db.get(b"k") == b"v1"
        assert (rows.hits, rows.misses) == (2, 2)
        db.put(b"k", b"v2")  # overwrite
        assert db.get(b"k") == b"v2"
        batch = WriteBatch()
        batch.put(b"k", b"v3").put(b"other", b"x").delete(b"k").put(b"k", b"")
        db.write(batch)
        assert db.get(b"k") == b"" and db.get(b"k") == b""  # an empty value is a value
        db.delete(b"k")
        assert db.get(b"k") is None
        # Flush and compaction move records, never what a key reads as.
        db.put(b"k", b"v4")
        assert db.get(b"k") == b"v4"
        for i in range(400):
            db.put(b"fill%04d" % i, b"x" * 64)
        db.flush()
        assert db.stats.compactions > 0
        hits = rows.hits
        assert db.get(b"k") == b"v4" and rows.hits == hits + 1
        assert db.stats.gets == 10  # a cached read is still a read


def test_snapshot_reads_bypass_the_row_cache(tmp_path):
    with DB.open(str(tmp_path / "db")) as db:
        db.put(b"k", b"old")
        with db.snapshot() as snap:
            db.put(b"k", b"new")
            assert db.get(b"k") == b"new"  # cached at the head
            rows = db.row_cache_stats
            before = (rows.hits, rows.misses)
            assert db.get(b"k", snapshot=snap) == b"old"
            assert db.get(b"absent", snapshot=snap) is None
            assert (rows.hits, rows.misses) == before
            db.put(b"absent", b"now here")
            assert db.get(b"absent", snapshot=snap) is None
            assert db.get(b"absent") == b"now here"


def test_row_cache_starts_empty_after_recovery(tmp_path):
    path = str(tmp_path / "db")
    with DB.open(path) as db:
        db.put(b"a", b"1")
        db.put(b"b", b"2")
        assert db.get(b"a") == b"1" and db.get(b"gone") is None
        db.delete(b"a")
        db.put(b"gone", b"back")
    with DB.open(path) as db:
        rows = db.row_cache_stats
        assert (rows.hits, rows.misses) == (0, 0) and len(db._row_cache) == 0
        assert db.get(b"a") is None and db.get(b"gone") == b"back" and db.get(b"b") == b"2"
        assert (rows.hits, rows.misses) == (0, 3)
