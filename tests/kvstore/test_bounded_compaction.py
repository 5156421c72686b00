"""Bounded output tables, moves and what they must never break.

Compaction cuts its outputs at ``MAX_TABLE_BYTES`` (DESIGN.md §5o), moves
a lone table down by a manifest edit, and deletes retired tables by
number.  The invariants: levels >= 1 stay sorted and disjoint, and a
moved table's file is the same file afterwards.
"""

import os
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kvstore import DB, DBOptions
from repro.kvstore import db as db_module
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


_keys = st.integers(0, 400).map(lambda i: b"%03d" % i)
# a run of neighbouring keys: narrow tables, which later move or merge
_fill = st.tuples(st.just("fill"), _keys, st.binary(min_size=100, max_size=200))
_op = st.one_of(
    st.tuples(st.just("put"), _keys, st.binary(max_size=60)),
    _fill,
    _fill,
    _fill,
    st.tuples(st.just("delete"), _keys, st.just(b"")),
    st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    st.tuples(st.just("reopen"), st.just(b""), st.just(b"")),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_op, min_size=30, max_size=60))
def test_small_cuts_keep_levels_disjoint_and_reads_right(tmp_path_factory, ops):
    """With a cut after every finished 4 KiB block most merges write
    several tables and many compactions are moves; reads still match a
    dict model."""
    directory = str(tmp_path_factory.mktemp("cuts"))
    options = DBOptions(
        memtable_size_bytes=3000,
        level_base_bytes=10_000,
        level_multiplier=3,
        l0_compaction_trigger=2,
    )
    with mock.patch.object(db_module, "MAX_TABLE_BYTES", 1):
        db = DB.open(directory, options)
        model: dict[bytes, bytes] = {}
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
                elif op == "flush":
                    db.flush()
                    assert_levels_disjoint(db)
                elif op == "reopen":
                    db.close()
                    db = DB.open(directory, options)
            db.flush()
            assert_levels_disjoint(db)
            live = {f for f in os.listdir(directory) if f.endswith(".sst")}
            assert len(live) == sum(db.level_file_counts())
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
        assert db.get(b"key007") == b"v" * 50  # opens the reader
        reader = db._tables[meta.number]

        db.compact_range(0)
        assert db.level_file_counts()[:3] == [0, 1, 0]
        assert tables_by_level(db)[1] == [meta]
        assert (db.stats.compactions, db.stats.bytes_compacted) == (1, 0)
        # Not closed, not removed.
        assert db._tables[meta.number] is reader and not reader._file.closed
        assert sha256_file(path) == digest
        assert db.get(b"key008") == b"v" * 50

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
