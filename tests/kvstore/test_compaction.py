"""Unit tests for compaction picking and version pruning."""

from hypothesis import given
from hypothesis import strategies as st

from repro.kvstore.compaction import pick_compaction, prune_versions
from repro.kvstore.record import InternalRecord, ValueType
from repro.kvstore.version import FileMetadata, VersionEdit, VersionSet


def meta(number, smallest, largest, size=1000):
    return FileMetadata(number, smallest, largest, size, entry_count=10)


def versions_with(files_by_level):
    versions = VersionSet("/nonexistent")
    edit = VersionEdit()
    for level, files in files_by_level.items():
        for file in files:
            edit.added.append((level, file))
    versions.apply(edit)
    return versions


def test_no_compaction_when_healthy():
    versions = versions_with({0: [meta(1, b"a", b"z")]})
    assert pick_compaction(versions) is None


def test_l0_trigger_fires_at_threshold():
    files = [meta(i, b"a", b"z") for i in range(1, 5)]
    versions = versions_with({0: files})
    compaction = pick_compaction(versions, l0_trigger=4)
    assert compaction is not None
    assert compaction.level == 0
    assert len(compaction.inputs_upper) == 4


def test_l0_compaction_pulls_overlapping_l1_files():
    l0 = [meta(i, b"c", b"m") for i in range(1, 5)]
    l1 = [meta(10, b"a", b"d"), meta(11, b"n", b"z")]
    versions = versions_with({0: l0, 1: l1})
    compaction = pick_compaction(versions)
    assert [f.number for f in compaction.inputs_lower] == [10]


def test_level_size_trigger():
    big = [meta(i, b"a%d" % i, b"b%d" % i, size=5 * 1024 * 1024) for i in range(1, 4)]
    versions = versions_with({1: big})
    compaction = pick_compaction(versions, base_bytes=8 * 1024 * 1024)
    assert compaction is not None
    assert compaction.level == 1
    assert len(compaction.inputs_upper) == 1


def test_a_lone_table_with_nothing_below_is_a_move():
    l1 = [meta(i, b"k%d0" % i, b"k%d9" % i, size=5 * 1024 * 1024) for i in range(1, 4)]
    versions = versions_with({1: l1, 2: [meta(9, b"k20", b"k25")]})
    first = pick_compaction(versions, base_bytes=8 * 1024 * 1024)
    assert [f.number for f in first.inputs_upper] == [1] and first.is_move
    second = pick_compaction(versions, base_bytes=8 * 1024 * 1024)
    assert [f.number for f in second.inputs_upper] == [2] and not second.is_move
    assert [f.number for f in second.inputs_lower] == [9]


def test_cursor_visits_every_table_before_revisiting_one():
    """L1 stays over its limit because every compacted table is replaced
    by a new one over the same keys (as the next L0 merge would): the
    picks sweep the key space in order and only then start over."""
    ranges = [(b"k%02d0" % i, b"k%02d9" % i) for i in range(6)]
    tables = [meta(i + 1, low, high, size=3 * 1024 * 1024) for i, (low, high) in enumerate(ranges)]
    versions = versions_with({1: tables})
    next_number = 100
    picked = []
    for _ in range(2 * len(ranges)):
        compaction = pick_compaction(versions, base_bytes=8 * 1024 * 1024)
        assert compaction.level == 1
        (table,) = compaction.inputs_upper
        picked.append((table.smallest, table.largest))
        refill = meta(next_number, table.smallest, table.largest, size=3 * 1024 * 1024)
        next_number += 1
        versions.apply(VersionEdit(added=[(1, refill)], deleted=[(1, table.number)]))
    assert picked == ranges + ranges


def test_cursor_is_not_persisted():
    tables = [meta(i, b"k%d0" % i, b"k%d9" % i, size=5 * 1024 * 1024) for i in range(1, 4)]
    versions = versions_with({1: tables})
    assert pick_compaction(versions).inputs_upper == [tables[0]]
    assert pick_compaction(versions).inputs_upper == [tables[1]]
    # A reopened DB builds a fresh VersionSet: the sweep starts over.
    assert pick_compaction(versions_with({1: tables})).inputs_upper == [tables[0]]


def test_one_edit_moves_deletes_and_adds_across_levels():
    versions = versions_with(
        {0: [meta(5, b"a", b"z"), meta(4, b"c", b"d")], 1: [meta(2, b"m", b"p"), meta(1, b"a", b"f")]}
    )
    assert [f.number for f in versions.levels[0]] == [4, 5]  # newest last
    assert [f.number for f in versions.levels[1]] == [1, 2]  # by smallest key
    moved = versions.levels[1][1]
    edit = VersionEdit(
        added=[(1, meta(7, b"q", b"z")), (1, meta(6, b"g", b"l")), (2, moved)],
        deleted=[(0, 4), (0, 5), (1, 2)],
    )
    versions.apply(edit)
    assert versions.levels[0] == []
    assert [f.number for f in versions.levels[1]] == [1, 6, 7]
    assert versions.levels[2] == [moved]
    assert versions.file_containing(1, b"h").number == 6
    assert versions.file_containing(1, b"fa") is None  # between two tables
    assert versions.file_containing(1, b"0") is None and versions.file_containing(3, b"h") is None


@given(
    st.lists(st.integers(0, 60), min_size=2, max_size=24, unique=True),
    st.one_of(st.none(), st.integers(-2, 62)),
    st.one_of(st.none(), st.integers(-2, 62)),
)
def test_files_overlapping_matches_a_linear_scan(bounds, start, end):
    """Levels >= 1 are answered by bisection; the answer is the scan's."""
    bounds = sorted(bounds)
    bounds = bounds[: len(bounds) // 2 * 2]
    tables = [
        meta(i, b"%02d" % low, b"%02d" % high)
        for i, (low, high) in enumerate(zip(bounds[::2], bounds[1::2]))
    ]
    versions = versions_with({1: tables})
    start_key = None if start is None else b"%02d" % start if start >= 0 else b""
    end_key = None if end is None else b"%02d" % end if end >= 0 else b""
    expected = [
        f
        for f in tables
        if (end_key is None or f.smallest <= end_key) and (start_key is None or f.largest >= start_key)
    ]
    assert versions.files_overlapping(1, start_key, end_key) == expected
    if start_key is not None:
        holder = [f for f in tables if f.smallest <= start_key <= f.largest]
        assert versions.file_containing(1, start_key) == (holder[0] if holder else None)


def prune(records, drop_tombstones=False):
    return list(prune_versions(records, drop_tombstones))


def test_prune_keeps_only_newest_without_snapshots():
    records = [
        InternalRecord(b"k", 5, ValueType.VALUE, b"v5"),
        InternalRecord(b"k", 3, ValueType.VALUE, b"v3"),
        InternalRecord(b"k", 1, ValueType.VALUE, b"v1"),
    ]
    kept = prune(records)
    assert [(r.sequence) for r in kept] == [5]


def test_prune_drops_future_records_never():
    # A lone record is the newest version of its key: nothing shadows it.
    records = [InternalRecord(b"k", 5, ValueType.VALUE, b"v5")]
    kept = prune(records)
    assert len(kept) == 1


def test_prune_handles_multiple_keys_independently():
    records = [
        InternalRecord(b"a", 4, ValueType.VALUE, b"a4"),
        InternalRecord(b"a", 2, ValueType.VALUE, b"a2"),
        InternalRecord(b"b", 3, ValueType.VALUE, b"b3"),
    ]
    kept = prune(records)
    assert [(r.user_key, r.sequence) for r in kept] == [(b"a", 4), (b"b", 3)]


def test_tombstone_dropped_at_bottom_when_nothing_older_survives():
    records = [
        InternalRecord(b"k", 5, ValueType.DELETION, b""),
        InternalRecord(b"k", 3, ValueType.VALUE, b"v3"),
    ]
    kept = prune(records, drop_tombstones=True)
    assert kept == []


def test_tombstone_kept_when_not_bottom_level():
    records = [InternalRecord(b"k", 5, ValueType.DELETION, b"")]
    kept = prune(records, drop_tombstones=False)
    assert len(kept) == 1 and kept[0].is_deletion
