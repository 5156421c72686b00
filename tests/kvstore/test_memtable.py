"""Unit and property tests for the sorted-list memtable."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.memtable import MemTable
from repro.kvstore.record import MAX_SEQUENCE, ValueType


def test_get_returns_latest_version():
    mem = MemTable()
    mem.add(1, ValueType.VALUE, b"k", b"v1")
    mem.add(2, ValueType.VALUE, b"k", b"v2")
    record = mem.get(b"k", MAX_SEQUENCE)
    assert record is not None and record.value == b"v2"


def test_get_respects_snapshot_sequence():
    mem = MemTable()
    mem.add(1, ValueType.VALUE, b"k", b"v1")
    mem.add(5, ValueType.VALUE, b"k", b"v5")
    record = mem.get(b"k", 3)
    assert record is not None and record.value == b"v1"


def test_get_before_first_version_is_none():
    mem = MemTable()
    mem.add(10, ValueType.VALUE, b"k", b"v")
    assert mem.get(b"k", 5) is None


def test_get_missing_key_is_none():
    mem = MemTable()
    mem.add(1, ValueType.VALUE, b"a", b"v")
    assert mem.get(b"b", MAX_SEQUENCE) is None


def test_tombstone_returned_as_deletion():
    mem = MemTable()
    mem.add(1, ValueType.VALUE, b"k", b"v")
    mem.add(2, ValueType.DELETION, b"k")
    record = mem.get(b"k", MAX_SEQUENCE)
    assert record is not None and record.is_deletion


def test_iteration_is_sorted_newest_first_per_key():
    mem = MemTable()
    mem.add(1, ValueType.VALUE, b"b", b"b1")
    mem.add(2, ValueType.VALUE, b"a", b"a2")
    mem.add(3, ValueType.VALUE, b"b", b"b3")
    records = list(mem)
    assert [(r.user_key, r.sequence) for r in records] == [
        (b"a", 2),
        (b"b", 3),
        (b"b", 1),
    ]


def test_iterate_from_seeks_correctly():
    mem = MemTable()
    for i, key in enumerate([b"a", b"c", b"e"], start=1):
        mem.add(i, ValueType.VALUE, key, b"v")
    keys = [r.user_key for r in mem.iterate_from(b"b", MAX_SEQUENCE)]
    assert keys == [b"c", b"e"]


def test_len_and_size_grow():
    mem = MemTable()
    assert len(mem) == 0
    mem.add(1, ValueType.VALUE, b"key", b"value")
    assert len(mem) == 1
    assert mem.approximate_size > 0


@given(
    st.lists(
        st.tuples(st.binary(min_size=1, max_size=8), st.binary(max_size=16)),
        max_size=200,
    )
)
def test_matches_model_dict(ops):
    """Inserting versions in order and reading at head matches a dict."""
    mem = MemTable()
    model = {}
    for sequence, (key, value) in enumerate(ops, start=1):
        mem.add(sequence, ValueType.VALUE, key, value)
        model[key] = value
    for key, expected in model.items():
        record = mem.get(key, MAX_SEQUENCE)
        assert record is not None and record.value == expected


@given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=100))
def test_iteration_sorted_property(keys):
    mem = MemTable()
    for sequence, key in enumerate(keys, start=1):
        mem.add(sequence, ValueType.VALUE, key, b"")
    sort_keys = [r.sort_key() for r in mem]
    assert sort_keys == sorted(sort_keys)


def test_suspended_iterator_survives_adds_on_both_sides():
    mem = MemTable()
    mem.add(1, ValueType.VALUE, b"b", b"")
    mem.add(2, ValueType.VALUE, b"d", b"")
    iterator = mem.iterate_from(b"b", MAX_SEQUENCE)
    mem.add(3, ValueType.VALUE, b"a", b"")  # before the seek key, before the first next()
    assert next(iterator).user_key == b"b"
    mem.add(4, ValueType.VALUE, b"a", b"")  # behind the iterator: shifts the list under it
    mem.add(5, ValueType.VALUE, b"c", b"")  # ahead of it: must be seen
    assert [r.user_key for r in iterator] == [b"c", b"d"]


_add = st.tuples(st.just("add"), st.binary(max_size=2), st.booleans())
_next = st.tuples(st.just("next"), st.integers(0, 3), st.just(0))
_model_ops = st.lists(
    st.one_of(
        _add,
        _add,
        _next,
        _next,
        st.tuples(st.just("get"), st.binary(max_size=2), st.integers(0, 80)),
        st.tuples(st.just("open"), st.binary(max_size=2), st.integers(0, 80)),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(_model_ops)
def test_matches_sorted_reference_with_suspended_iterators(ops):
    """Interleaved adds, gets and steps of iterators left suspended across
    the adds agree with ``sorted()`` over everything added so far: an
    iterator's output is strictly increasing, starts at its seek key and
    skips nothing that was in the table when it passed."""
    mem = MemTable()
    model = []  # every record added, unsorted
    iterators = []  # [iterator, sort key it must next exceed, inclusive?]
    sequence = 0
    for op, first, second in ops:
        if op == "add":
            sequence += 1
            kind = ValueType.VALUE if second else ValueType.DELETION
            mem.add(sequence, kind, first, b"v%d" % sequence)
            model.append((first, sequence, kind, b"v%d" % sequence))
            assert len(mem) == len(model)
        elif op == "get":
            visible = [r for r in model if r[0] == first and r[1] <= second]
            expected = max(visible, key=lambda r: r[1]) if visible else None
            assert mem.get(first, second) == expected
        elif op == "open":
            iterators.append([mem.iterate_from(first, second), (first, -second), True])
        elif iterators:
            state = iterators[first % len(iterators)]
            iterator, bound, inclusive = state
            ahead = sorted(
                (r[0], -r[1])
                for r in model
                if (r[0], -r[1]) > bound or (inclusive and (r[0], -r[1]) == bound)
            )
            record = next(iterator, None)
            if ahead:
                assert record is not None and record.sort_key() == ahead[0]
                state[1:] = [ahead[0], False]
            else:
                assert record is None
                iterators.remove(state)  # a finished generator stays finished
    assert [r.sort_key() for r in mem] == sorted((r[0], -r[1]) for r in model)
    assert list(mem) == sorted(model, key=lambda r: (r[0], -r[1]))
