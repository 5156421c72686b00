"""Unit and property tests for the write set."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.writeset import WriteSet
from repro.kvstore.record import ValueType


def make_writeset(backing=None):
    backing = backing if backing is not None else {}
    return WriteSet(backing.get), backing


def test_read_through_to_backing():
    ws, _ = make_writeset({b"k": b"committed"})
    assert ws.get(b"k") == b"committed"


def test_own_writes_visible_to_own_reads():
    ws, _ = make_writeset({b"k": b"old"})
    ws.put(b"k", b"new")
    assert ws.get(b"k") == b"new"


def test_buffered_delete_hides_committed_value():
    ws, _ = make_writeset({b"k": b"v"})
    ws.delete(b"k")
    assert ws.get(b"k") is None


def test_writes_not_applied_to_backing():
    ws, backing = make_writeset({})
    ws.put(b"k", b"v")
    assert b"k" not in backing


def test_read_set_tracks_first_committed_observation_only():
    ws, _ = make_writeset({b"a": b"1"})
    ws.get(b"a")
    ws.get(b"a")
    ws.get(b"missing")
    reads = ws.read_set()
    assert set(reads) == {b"a", b"missing"}


def test_reads_of_own_writes_not_in_read_set():
    ws, _ = make_writeset({})
    ws.put(b"k", b"v")
    ws.get(b"k")
    assert ws.read_set() == {}


def test_note_read_records_scan_observations():
    ws, _ = make_writeset({})
    ws.note_read(b"scanned", b"value")
    ws.note_read(b"absent", None)
    assert set(ws.read_set()) == {b"scanned", b"absent"}


def test_absent_and_present_digests_differ():
    ws, _ = make_writeset({b"k": b"v"})
    ws.get(b"k")
    ws.get(b"missing")
    reads = ws.read_set()
    assert reads[b"k"] != reads[b"missing"]


def test_to_batch_preserves_order_and_ops():
    ws, _ = make_writeset({})
    ws.put(b"a", b"1")
    ws.delete(b"b")
    ws.put(b"c", b"3")
    ops = list(ws.to_batch().items())
    assert ops == [
        (ValueType.VALUE, b"a", b"1"),
        (ValueType.DELETION, b"b", b""),
        (ValueType.VALUE, b"c", b"3"),
    ]


def test_last_write_per_key_wins_in_batch():
    ws, _ = make_writeset({})
    ws.put(b"k", b"v1")
    ws.put(b"k", b"v2")
    ops = list(ws.to_batch().items())
    assert ops == [(ValueType.VALUE, b"k", b"v2")]


def test_buffered_under_filters_by_prefix():
    ws, _ = make_writeset({})
    ws.put(b"p/a", b"1")
    ws.delete(b"p/b")
    ws.put(b"q/c", b"2")
    under = ws.buffered_under(b"p/")
    assert under == {b"p/a": b"1", b"p/b": None}


def test_clear_resets_everything():
    ws, _ = make_writeset({b"x": b"1"})
    ws.get(b"x")
    ws.put(b"y", b"2")
    ws.clear()
    assert not ws.has_writes
    assert ws.read_set() == {}
    assert ws.written_keys() == []


def _copy(value: bytes) -> bytes:
    """An equal ``bytes`` object that is not ``value`` itself."""
    copy = bytes(bytearray(value))
    assert copy is not value
    return copy


def test_equal_values_are_buffered_as_the_first_one():
    ws, _ = make_writeset({})
    first = _copy(b"post text")
    ws.put(b"a", first)
    ws.put(b"b", _copy(first))
    ws.put(b"c", b"other")
    values = {key: value for _kind, key, value in ws.to_batch().items()}
    assert values[b"a"] is first and values[b"b"] is first
    assert ws.get(b"b") is first and values[b"c"] == b"other"


def test_a_nested_write_set_shares_the_table_across_commits():
    root, backing = make_writeset({})
    first = _copy(b"post text")
    root.put(b"a", first)
    root.clear()  # the caller commits before its nested call
    child = root.nested(backing.get, track_reads=True)
    child.put(b"b", _copy(first))
    assert child.get(b"b") is first
    root.put(b"c", _copy(first))
    assert root.get(b"c") is first
    # A new request starts its own table.
    other, _ = make_writeset({})
    other.put(b"d", _copy(first))
    assert other.get(b"d") is not first


@given(
    st.lists(
        st.tuples(st.booleans(), st.binary(min_size=1, max_size=4), st.binary(max_size=8)),
        max_size=50,
    )
)
def test_writeset_reads_match_overlay_model(ops):
    backing = {b"base": b"value"}
    ws = WriteSet(backing.get)
    model = dict(backing)
    for is_put, key, value in ops:
        if is_put:
            ws.put(key, value)
            model[key] = value
        else:
            ws.delete(key)
            model.pop(key, None)
    for key in set(model) | {k for _, k, _ in ops} | {b"base"}:
        assert ws.get(key) == model.get(key)
