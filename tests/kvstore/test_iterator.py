"""Property tests for the k-way merge and the visibility filter."""

from hypothesis import given
from hypothesis import strategies as st

from repro.kvstore.iterator import merge_records, visible_items
from repro.kvstore.record import InternalRecord, ValueType

# Few distinct keys and sequences, so different sources often hold records
# with the same sort key; the value records which source a record came from.
_positions = st.tuples(st.sampled_from([b"a", b"b", b"b\x00", b"c"]), st.integers(1, 6))
_sources = st.lists(st.lists(_positions, max_size=8, unique=True), max_size=5)


def build_sources(position_lists):
    return [
        sorted(
            (
                InternalRecord(key, sequence, ValueType.VALUE, b"source-%d" % index)
                for key, sequence in positions
            ),
            key=lambda r: r.sort_key(),
        )
        for index, positions in enumerate(position_lists)
    ]


@given(_sources)
def test_merge_equals_sorted_with_earlier_source_winning_ties(position_lists):
    sources = build_sources(position_lists)
    tagged = [
        (record.sort_key(), index, record)
        for index, source in enumerate(sources)
        for record in source
    ]
    expected = [record for _key, _index, record in sorted(tagged, key=lambda t: t[:2])]
    assert list(merge_records(sources)) == expected
    # One-shot iterators (what the DB passes) merge the same way.
    assert list(merge_records([iter(source) for source in sources])) == expected


def test_merge_of_nothing_is_empty():
    assert list(merge_records([])) == []
    assert list(merge_records([[], iter(())])) == []


@given(_sources, st.integers(0, 7))
def test_visible_items_picks_newest_visible_version(position_lists, snapshot):
    sources = build_sources(position_lists)
    items = list(visible_items(merge_records(sources), snapshot))
    newest = {}
    for index, source in enumerate(sources):
        for record in source:
            if record.sequence > snapshot:
                continue
            best = newest.get(record.user_key)
            if best is None or (record.sequence, -index) > (best[0].sequence, -best[1]):
                newest[record.user_key] = (record, index)
    assert items == [(key, newest[key][0].value) for key in sorted(newest)]
