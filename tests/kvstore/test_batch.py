"""Unit and property tests for WriteBatch."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptionError, ReadOnlyError
from repro.kvstore.batch import Round, WriteBatch
from repro.kvstore.record import ValueType

from tests.kvstore.round_oracle import encode_round


def test_put_delete_recorded_in_order():
    batch = WriteBatch()
    batch.put(b"a", b"1").delete(b"b").put(b"c", b"3")
    ops = list(batch.items())
    assert ops == [
        (ValueType.VALUE, b"a", b"1"),
        (ValueType.DELETION, b"b", b""),
        (ValueType.VALUE, b"c", b"3"),
    ]


def test_len_and_bool():
    batch = WriteBatch()
    assert not batch
    assert len(batch) == 0
    batch.put(b"k", b"v")
    assert batch
    assert len(batch) == 1


def test_non_bytes_rejected():
    batch = WriteBatch()
    with pytest.raises(TypeError):
        batch.put("str", b"v")  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        batch.put(b"k", 123)  # type: ignore[arg-type]


def test_encode_decode_roundtrip_simple():
    batch = WriteBatch()
    batch.put(b"key", b"value").delete(b"gone").put(b"", b"")
    decoded = WriteBatch.decode(batch.encode())
    assert list(decoded.items()) == list(batch.items())


def test_decode_rejects_trailing_garbage():
    data = WriteBatch().encode() + b"x"
    with pytest.raises(CorruptionError):
        WriteBatch.decode(data)


def test_decode_rejects_bad_kind():
    batch = WriteBatch()
    batch.put(b"k", b"v")
    data = bytearray(batch.encode())
    data[1] = 9  # corrupt the op kind byte
    with pytest.raises(CorruptionError):
        WriteBatch.decode(bytes(data))


def test_decode_rejects_truncation():
    batch = WriteBatch()
    batch.put(b"key", b"value")
    data = batch.encode()
    with pytest.raises(CorruptionError):
        WriteBatch.decode(data[:-2])


_ops = st.lists(
    st.tuples(
        st.booleans(),
        st.binary(max_size=64),
        st.binary(max_size=256),
    ),
    max_size=50,
)


@given(_ops)
def test_roundtrip_property(ops):
    batch = WriteBatch()
    for is_put, key, value in ops:
        if is_put:
            batch.put(key, value)
        else:
            batch.delete(key)
    decoded = WriteBatch.decode(batch.encode())
    assert list(decoded.items()) == list(batch.items())


def test_from_ops_takes_the_list_whole():
    ops = [(ValueType.VALUE, b"a", b"1"), (ValueType.DELETION, b"b", b"")]
    batch = WriteBatch.from_ops(ops)
    assert list(batch.items()) == ops
    assert batch.encode() == WriteBatch().put(b"a", b"1").delete(b"b").encode()
    batch.put(b"c", b"3")  # private until shared
    assert len(batch) == 3


# -- replication rounds ------------------------------------------------------

_POST = b'{"author":"user-1","time":7,"text":"a post long enough to share"}'


def _post_round() -> list[WriteBatch]:
    """A Post-shaped round: one value written under three objects' keys,
    counters next to entries, and a deletion."""
    author = WriteBatch().put(b"o/aa/c/posts/01", _POST).put(b"o/aa/n/posts", b"2")
    own = WriteBatch().put(b"o/aa/c/timeline/01", _POST).put(b"o/aa/n/timeline", b"2")
    follower = WriteBatch().put(b"o/bb/c/timeline/01", _POST).delete(b"o/bb/v/draft")
    return [author, own, follower]


def _items(batches) -> list:
    return [list(batch.items()) for batch in batches]


def test_round_stores_a_repeated_value_once():
    batches = _post_round()
    expected = _items(batches)
    payload, oracle_objects = encode_round(batches)
    assert payload.count(_POST) == 1
    round_ = Round.of(batches)
    assert round_.size == len(payload)
    # Three copies of the post cost one copy plus two back-references:
    # less than two copies and every key in full.
    keys = [key for ops in expected for _kind, key, _value in ops]
    assert round_.size < 2 * len(_POST) + sum(map(len, keys))
    assert round_.objects == oracle_objects == (b"aa", b"bb")
    assert _items(round_.batches) == expected


def test_round_keys_share_their_prefix_with_the_previous_key():
    keys = [b"o/" + b"f" * 32 + b"/v/" + name for name in (b"alpha", b"beta", b"gamma")]
    batch = WriteBatch()
    for key in keys:
        batch.put(key, b"v")
    payload, _objects = encode_round([batch])
    round_ = Round.of([batch])
    assert round_.objects == (b"f" * 32,)
    # The first key ships whole; later ones ship only what follows the
    # 37 bytes ``o/<oid>/v/`` they share with the key before them.  Beyond
    # the keys: two counts, and per op a kind, two lengths, a value tag
    # and the one-byte value.
    assert payload.count(b"f" * 32) == 1
    assert round_.size == len(payload) == sum(map(len, keys)) - 2 * 37 + 2 + 3 * 5


_round_keys = st.builds(
    bytes.__add__,
    st.sampled_from([b"", b"o/", b"o/aa/", b"o/aa/c/t/", b"o/bb/", b"x"]),
    st.binary(max_size=12),
)
_round_values = st.one_of(
    st.sampled_from([b"", b"12345678", b"123456789", b"a repeated long value"]),
    st.binary(max_size=40),
    st.binary(min_size=60, max_size=200),  # two-byte length tags
)
_round_ops = st.tuples(st.booleans(), _round_keys, _round_values)


@given(st.lists(st.lists(_round_ops, max_size=12), max_size=5))
def test_round_trip_property(spec):
    batches = []
    for ops in spec:
        batch = WriteBatch()
        for is_put, key, value in ops:
            if is_put:
                batch.put(key, value)
            else:
                batch.delete(key)
        batches.append(batch)
    expected = _items(batches)
    payload, oracle_objects = encode_round(batches)
    round_ = Round.of(batches)
    assert round_.size == len(payload)
    assert round_.objects == oracle_objects
    assert _items(round_.batches) == expected
    # Object ids: the ``<oid>`` of ``o/<oid>/`` keys, else the key itself.
    keys = [key for ops in expected for _kind, key, _value in ops]
    assert set(round_.objects) == {
        key[2 : key.index(b"/", 2)] if key[:2] == b"o/" and b"/" in key[2:] else key
        for key in keys
    }


def test_round_size_counts_back_references_past_the_one_byte_tag():
    # 70 distinct long values fill the table past index 63, whose
    # back-reference tag ``index << 1 | 1`` no longer fits one byte.
    values = [b"value-%03d-long" % i for i in range(70)]
    first = WriteBatch()
    second = WriteBatch()
    for i, value in enumerate(values):
        first.put(b"o/aa/c/a/%03d" % i, value)
        second.put(b"o/bb/c/b/%03d" % i, value)
    payload, _objects = encode_round([first, second])
    assert Round.of([first, second]).size == len(payload)


# -- read-only batches -------------------------------------------------------


def _sample_batch(tag: bytes) -> WriteBatch:
    return WriteBatch().put(b"memo/" + tag, b"value").delete(b"memo/gone").put(b"memo/z", b"")


def _assert_read_only(batch: WriteBatch) -> None:
    before = list(batch.items())
    with pytest.raises(ReadOnlyError):
        batch.put(b"k", b"v")
    with pytest.raises(ReadOnlyError):
        batch.delete(b"k")
    assert list(batch.items()) == before


def test_shared_batches_refuse_mutation():
    committed = _sample_batch(b"committed")
    round_ = Round.of([committed])
    assert round_.batches[0] is committed
    _assert_read_only(committed)


def test_decode_stays_private_and_mutable():
    shared = _sample_batch(b"private")
    Round.of([shared])
    private = WriteBatch.decode(shared.encode())
    assert private is not shared
    private.put(b"k", b"v").delete(b"memo/z")
    assert len(shared) == 3  # the shared one is untouched
