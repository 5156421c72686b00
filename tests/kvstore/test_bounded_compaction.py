"""Bounded output tables, moves and what they must never break.

Compaction cuts its outputs at ``MAX_TABLE_BYTES`` (DESIGN.md §5o), moves
a lone table down by a manifest edit, and deletes retired tables by
number.  The invariants: a user key's versions never span two tables of a
level, levels >= 1 stay sorted and disjoint, and a moved table's file is
the same file afterwards.
"""

import os
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kvstore import DB, DBOptions
from repro.kvstore import db as db_module
from repro.kvstore.compaction import MAX_TABLE_BYTES
from tests.kvstore.test_format_goldens import sha256_file


def tables_by_level(db):
    return db._versions.levels


def assert_levels_disjoint(db):
    for level, files in enumerate(tables_by_level(db)):
        if level == 0:
            continue
        for left, right in zip(files, files[1:]):
            assert left.largest < right.smallest, f"level {level} overlaps or is unsorted"
    db.verify_integrity()


def test_pinned_versions_straddling_the_cut_stay_in_one_table(tmp_path):
    """Forty 64 KiB versions of one key, each pinned by its own snapshot,
    begin 1.8 MiB into the merge: the 2 MiB mark falls between them, and
    the table is cut only once the key is over."""
    options = DBOptions(memtable_size_bytes=64 << 20, l0_compaction_trigger=100)
    filler = b"f" * (150 * 1024)
    with DB.open(str(tmp_path / "db"), options) as db:
        pinned = []
        for letter in b"abcdefghijkl":
            db.put(bytes([letter]), filler)
        for version in range(20):
            db.put(b"m", b"%02d" % version * (32 * 1024))
            pinned.append((db.snapshot(), version))
        db.flush()
        for version in range(20, 40):
            db.put(b"m", b"%02d" % version * (32 * 1024))
            pinned.append((db.snapshot(), version))
        for letter in b"nopqrstuvwxyz":
            db.put(bytes([letter]), filler)
        db.flush()
        assert db.level_file_counts()[:2] == [2, 0]
        db.compact_range(0)

        level_one = tables_by_level(db)[1]
        assert len(level_one) == 2 and db.level_file_counts()[0] == 0
        first, second = level_one
        assert first.largest == b"m" and second.smallest == b"n"
        assert first.entry_count == 12 + 40  # every version survived, in one table
        assert first.size_bytes > MAX_TABLE_BYTES + 30 * 64 * 1024
        assert_levels_disjoint(db)
        for snapshot, version in pinned:
            assert db.get(b"m", snapshot=snapshot) == b"%02d" % version * (32 * 1024)
            snapshot.release()
        assert db.get(b"m") == b"39" * (32 * 1024)


_keys = st.integers(0, 400).map(lambda i: b"%03d" % i)
# a run of neighbouring keys: narrow tables, which later move or merge
_fill = st.tuples(st.just("fill"), _keys, st.binary(min_size=100, max_size=200))
_op = st.one_of(
    st.tuples(st.just("put"), _keys, st.binary(max_size=60)),
    _fill,
    _fill,
    _fill,
    st.tuples(st.just("delete"), _keys, st.just(b"")),
    st.tuples(st.just("snapshot"), st.just(b""), st.just(b"")),
    st.tuples(st.just("release"), st.just(b""), st.just(b"")),
    st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    st.tuples(st.just("reopen"), st.just(b""), st.just(b"")),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_op, min_size=30, max_size=60))
def test_small_cuts_keep_levels_disjoint_and_reads_right(tmp_path_factory, ops):
    """With a cut after every finished 4 KiB block most merges write
    several tables and many compactions are moves; reads at the head and
    at every live snapshot still match a dict model."""
    directory = str(tmp_path_factory.mktemp("cuts"))
    options = DBOptions(
        memtable_size_bytes=3000,
        block_cache_bytes=16 * 1024,
        level_base_bytes=10_000,
        level_multiplier=3,
        l0_compaction_trigger=2,
    )
    with mock.patch.object(db_module, "MAX_TABLE_BYTES", 1):
        db = DB.open(directory, options)
        model: dict[bytes, bytes] = {}
        snapshots = []  # (snapshot, the model when it was taken)
        try:
            for op, key, value in ops:
                if op == "put":
                    db.put(key, value)
                    model[key] = value
                elif op == "fill":
                    for i in range(int(key), int(key) + 12):
                        db.put(b"%03d" % i, value)
                        model[b"%03d" % i] = value
                elif op == "delete":
                    db.delete(key)
                    model.pop(key, None)
                elif op == "snapshot":
                    snapshots.append((db.snapshot(), dict(model)))
                elif op == "release" and snapshots:
                    snapshots.pop(0)[0].release()
                elif op == "flush":
                    db.flush()
                    assert_levels_disjoint(db)
                elif op == "reopen":
                    snapshots.clear()  # snapshots do not outlive the handle
                    db.close()
                    db = DB.open(directory, options)
            db.flush()
            assert_levels_disjoint(db)
            live = {f for f in os.listdir(directory) if f.endswith(".sst")}
            assert len(live) == sum(db.level_file_counts())
            for snapshot, frozen in snapshots:
                for key in set(frozen) | set(model):
                    assert db.get(key, snapshot=snapshot) == frozen.get(key)
            for key, expected in model.items():
                assert db.get(key) == expected
            assert dict(db.iterate()) == model
        finally:
            db.close()


def test_a_lone_table_is_moved_not_rewritten(tmp_path):
    directory = str(tmp_path / "db")
    options = DBOptions(l0_compaction_trigger=100)
    with DB.open(directory, options) as db:
        for i in range(300):
            db.put(b"key%03d" % i, b"v" * 50)
        db.delete(b"key100")  # a moved table keeps its tombstones
        db.flush()
        (meta,) = tables_by_level(db)[0]
        path = os.path.join(directory, "%06d.sst" % meta.number)
        digest = sha256_file(path)
        assert db.get(b"key007") == b"v" * 50  # opens the reader, caches a block
        reader = db._tables[meta.number]
        cached = len(db._block_cache)
        assert cached > 0

        db.compact_range(0)
        assert db.level_file_counts()[:3] == [0, 1, 0]
        assert tables_by_level(db)[1] == [meta]
        assert (db.stats.compactions, db.stats.bytes_compacted) == (1, 0)
        # Not closed, not uncached, not removed.
        assert db._tables[meta.number] is reader and not reader._file.closed
        assert len(db._block_cache) == cached
        assert sha256_file(path) == digest
        hits = db.block_cache_stats.hits
        assert db.get(b"key008") == b"v" * 50
        assert db.block_cache_stats.hits == hits + 1

        db.compact_range(1)
        assert db.level_file_counts()[:3] == [0, 0, 1]
        assert sha256_file(path) == digest
    with DB.open(directory, options) as db:
        assert db.level_file_counts()[:3] == [0, 0, 1]
        assert tables_by_level(db)[2] == [meta]
        assert db.verify_integrity() == {"tables": 1, "records": 301}
        assert db.get(b"key299") == b"v" * 50 and db.get(b"key100") is None
        assert sha256_file(path) == digest


def test_overlap_below_forces_a_merge(tmp_path):
    """The same lone table is rewritten when the next level overlaps it."""
    options = DBOptions(l0_compaction_trigger=100)
    with DB.open(str(tmp_path / "db"), options) as db:
        db.put(b"a", b"old")
        db.put(b"z", b"old")
        db.flush()
        db.compact_range(0)  # moved
        db.put(b"m", b"new")
        db.flush()
        db.compact_range(0)  # [m, m] lies inside [a, z]: merged
        assert db.level_file_counts()[:2] == [0, 1]
        assert db.stats.compactions == 2 and db.stats.bytes_compacted > 0
        assert dict(db.iterate()) == {b"a": b"old", b"m": b"new", b"z": b"old"}
