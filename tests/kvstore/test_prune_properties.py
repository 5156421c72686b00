"""Property test: version pruning preserves what a read at the head sees.

Every read is at the head, so a merge keeps only the newest version of
each user key.  ``prune_versions`` is checked against the list-per-record
formulation for snapshot boundaries, kept here as the oracle, at the one
boundary the store ever passes it: the head sequence.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.kvstore.compaction import prune_versions
from repro.kvstore.record import InternalRecord, ValueType


def reference_prune(records, live_snapshots, drop_tombstones):
    """The list-per-record formulation of snapshot pruning: each version
    claims the unsatisfied boundaries at or above its sequence."""
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
_version_maps = st.dictionaries(
    st.binary(min_size=1, max_size=3), _versions, min_size=1, max_size=3
)


@given(_version_maps, st.booleans())
def test_prune_preserves_per_snapshot_visibility(version_map, drop_tombstones):
    """The head is the one snapshot a read can take: the value it sees
    after pruning is exactly the value it saw before."""
    # Build internal records: per key, versions get distinct sequences.
    all_records = []
    sequence = 0
    for key in sorted(version_map):
        for is_deletion, value in version_map[key]:
            sequence += 1
            kind = ValueType.DELETION if is_deletion else ValueType.VALUE
            all_records.append(InternalRecord(key, sequence, kind, b"" if is_deletion else value))
    head = sequence
    ordered = sorted(all_records, key=lambda r: r.sort_key())

    pruned = list(prune_versions(ordered, drop_tombstones))
    assert pruned == reference_prune(ordered, [head], drop_tombstones)

    # Output stays sorted, is a subset of the input and has one version per key.
    assert [r.sort_key() for r in pruned] == sorted(r.sort_key() for r in pruned)
    assert set(pruned) <= set(all_records)
    assert len({r.user_key for r in pruned}) == len(pruned)

    for key in version_map:
        key_before = [r for r in all_records if r.user_key == key]
        key_after = [r for r in pruned if r.user_key == key]
        assert lookup(key_after, head) == lookup(key_before, head), key


@given(
    _version_maps,
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=8),
    st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=5),
    st.booleans(),
)
def test_prune_equals_reference_for_any_boundaries(
    version_map, gaps, boundary_offsets, drop_tombstones
):
    """Sequences with gaps, and boundaries at or above the head in any
    order and repeated: the same records survive as in the reference,
    since every such boundary reads the newest version of each key."""
    records = []
    sequence = 0
    step = 0
    for key in sorted(version_map):
        for is_deletion, value in version_map[key]:
            sequence += gaps[step % len(gaps)]
            step += 1
            kind = ValueType.DELETION if is_deletion else ValueType.VALUE
            records.append(InternalRecord(key, sequence, kind, b"" if is_deletion else value))
    head = sequence
    boundaries = [head + offset for offset in boundary_offsets]
    ordered = sorted(records, key=lambda r: r.sort_key())
    assert list(prune_versions(ordered, drop_tombstones)) == reference_prune(
        ordered, boundaries, drop_tombstones
    )
