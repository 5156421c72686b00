"""Property test: version pruning preserves snapshot visibility.

For every live snapshot boundary, the value visible after pruning must be
exactly the value visible before — pruning may only drop record versions
no snapshot can observe.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.kvstore.compaction import prune_versions
from repro.kvstore.record import InternalRecord, ValueType


def reference_prune(records, live_snapshots, drop_tombstones):
    """The list-per-record formulation ``prune_versions`` replaced: each
    version claims the unsatisfied boundaries at or above its sequence."""
    boundaries = sorted(set(live_snapshots))
    current_key = None
    remaining = []
    kept = []
    for record in records:
        if record.user_key != current_key:
            current_key = record.user_key
            remaining = list(boundaries)
        claimed = [b for b in remaining if b >= record.sequence]
        if not claimed:
            continue
        remaining = [b for b in remaining if b < record.sequence]
        if record.is_deletion and drop_tombstones and not remaining:
            continue
        kept.append(record)
    return kept


def visible_at(records, sequence):
    """Newest record visible at ``sequence`` (None if none)."""
    best = None
    for record in records:
        if record.sequence <= sequence and (best is None or record.sequence > best.sequence):
            best = record
    return best


def lookup(records, sequence):
    """User-visible value at ``sequence``: bytes or None (absent/deleted)."""
    record = visible_at(records, sequence)
    if record is None or record.is_deletion:
        return None
    return record.value


_versions = st.lists(
    st.tuples(st.booleans(), st.binary(max_size=6)), min_size=1, max_size=8
)
_key_count = st.integers(min_value=1, max_value=3)
_snapshots = st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=4)


@given(
    st.dictionaries(st.binary(min_size=1, max_size=3), _versions, min_size=1, max_size=3),
    _snapshots,
    st.booleans(),
)
def test_prune_preserves_per_snapshot_visibility(version_map, snapshots, drop_tombstones):
    # Build internal records: per key, versions get distinct sequences.
    all_records = []
    sequence = 0
    for key in sorted(version_map):
        for is_deletion, value in version_map[key]:
            sequence += 1
            kind = ValueType.DELETION if is_deletion else ValueType.VALUE
            all_records.append(InternalRecord(key, sequence, kind, b"" if is_deletion else value))
    head = sequence
    boundaries = sorted(set(snapshots) | {head})
    ordered = sorted(all_records, key=lambda r: r.sort_key())

    pruned = list(prune_versions(ordered, boundaries, drop_tombstones))
    assert pruned == reference_prune(ordered, boundaries, drop_tombstones)
    # Outside a snapshot the head sequence is the only boundary.
    assert list(prune_versions(ordered, [head], drop_tombstones)) == reference_prune(
        ordered, [head], drop_tombstones
    )

    # Output stays sorted and is a subset of the input.
    assert [r.sort_key() for r in pruned] == sorted(r.sort_key() for r in pruned)
    assert set(pruned) <= set(all_records)

    for key in version_map:
        key_before = [r for r in all_records if r.user_key == key]
        key_after = [r for r in pruned if r.user_key == key]
        for boundary in boundaries:
            assert lookup(key_after, boundary) == lookup(key_before, boundary), (
                key,
                boundary,
            )


@given(
    st.dictionaries(st.binary(min_size=1, max_size=3), _versions, min_size=1, max_size=3),
    st.lists(st.integers(min_value=0, max_value=40), max_size=5),
    st.booleans(),
)
def test_prune_equals_reference_for_any_boundaries(version_map, boundaries, drop_tombstones):
    """Boundaries below, between and above every sequence, repeated,
    unsorted or absent: the same records survive as in the reference."""
    records = []
    sequence = 0
    for key in sorted(version_map):
        for is_deletion, value in version_map[key]:
            sequence += 1
            kind = ValueType.DELETION if is_deletion else ValueType.VALUE
            records.append(InternalRecord(key, sequence, kind, b"" if is_deletion else value))
    ordered = sorted(records, key=lambda r: r.sort_key())
    assert list(prune_versions(ordered, boundaries, drop_tombstones)) == reference_prune(
        ordered, boundaries, drop_tombstones
    )
