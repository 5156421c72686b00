"""Unit and property tests for WriteBatch."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptionError, ReadOnlyError
from repro.kvstore import batch as batch_module
from repro.kvstore.batch import WriteBatch, decode_round, encode_round
from repro.kvstore.record import ValueType


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


def test_clear():
    batch = WriteBatch()
    batch.put(b"k", b"v")
    batch.clear()
    assert not batch


def test_extend_appends():
    a = WriteBatch()
    a.put(b"x", b"1")
    b = WriteBatch()
    b.delete(b"y")
    a.extend(b)
    assert len(a) == 2


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
    payload, objects = encode_round(batches)
    assert payload.count(_POST) == 1
    assert objects == (b"aa", b"bb")
    batch_module._DECODE_MEMO.clear()
    decoded, decoded_objects = decode_round(payload)
    assert _items(decoded) == expected
    assert decoded_objects == objects


def test_round_keys_share_their_prefix_with_the_previous_key():
    keys = [b"o/" + b"f" * 32 + b"/v/" + name for name in (b"alpha", b"beta", b"gamma")]
    batch = WriteBatch()
    for key in keys:
        batch.put(key, b"v")
    payload, objects = encode_round([batch])
    assert objects == (b"f" * 32,)
    # The first key ships whole; later ones ship only what follows the
    # 37 bytes ``o/<oid>/v/`` they share with the key before them.  Beyond
    # the keys: two counts, and per op a kind, two lengths, a value tag
    # and the one-byte value.
    assert payload.count(b"f" * 32) == 1
    assert len(payload) == sum(map(len, keys)) - 2 * 37 + 2 + 3 * 5


_round_keys = st.builds(
    bytes.__add__,
    st.sampled_from([b"", b"o/", b"o/aa/", b"o/aa/c/t/", b"o/bb/", b"x"]),
    st.binary(max_size=12),
)
_round_values = st.one_of(
    st.sampled_from([b"", b"12345678", b"123456789", b"a repeated long value"]),
    st.binary(max_size=40),
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
    payload, objects = encode_round(batches)
    batch_module._DECODE_MEMO.pop(payload)  # parse, not the memo
    decoded, decoded_objects = decode_round(payload)
    assert _items(decoded) == expected
    assert decoded_objects == objects
    # Object ids: the ``<oid>`` of ``o/<oid>/`` keys, else the key itself.
    keys = [key for ops in expected for _kind, key, _value in ops]
    assert set(objects) == {
        key[2 : key.index(b"/", 2)] if key[:2] == b"o/" and b"/" in key[2:] else key
        for key in keys
    }


@pytest.mark.parametrize(
    "damaged, reason",
    [
        (b"\x01\x02\x00\x00\x01a", "missing op"),
        (b"\x01\x01\x00\x00\x05ab", "short key"),
        (b"\x01\x01\x01\x00\x01a\x0aab", "short value"),
        (b"\x01\x01\x01\x00\x01a", "truncated varint"),
        (b"\x01\x01\x09\x00\x01a", "bad op kind"),
        (b"\x01\x02\x00\x00\x01a\x00\x02\x00", "shares 2 bytes of a 1-byte"),
        (b"\x01\x01\x01\x00\x01a\x01", "refers to value 0 of 0"),
        (b"\x00x", "trailing garbage"),
    ],
)
def test_decode_round_rejects_damage(damaged, reason):
    with pytest.raises(CorruptionError, match=reason):
        decode_round(damaged)
    assert damaged not in batch_module._DECODE_MEMO


# -- the decode memo ---------------------------------------------------------


def _sample_batch(tag: bytes) -> WriteBatch:
    return WriteBatch().put(b"memo/" + tag, b"value").delete(b"memo/gone").put(b"memo/z", b"")


def _assert_read_only(batch: WriteBatch) -> None:
    before = list(batch.items())
    with pytest.raises(ReadOnlyError):
        batch.put(b"k", b"v")
    with pytest.raises(ReadOnlyError):
        batch.delete(b"k")
    with pytest.raises(ReadOnlyError):
        batch.extend(WriteBatch().put(b"k", b"v"))
    with pytest.raises(ReadOnlyError):
        batch.clear()
    assert list(batch.items()) == before


def test_encode_round_enters_the_batches_under_its_own_payload():
    first, second = _sample_batch(b"own"), WriteBatch().put(b"o/aa/m", b"User")
    payload, objects = encode_round([first, second])
    assert objects == (b"aa", b"memo/gone", b"memo/own", b"memo/z")
    # A backup in this process gets the committed batches themselves: no parse.
    batches, _objects = decode_round(payload)
    assert batches[0] is first and batches[1] is second
    assert decode_round(bytes(bytearray(payload)))[0] is batches  # equal bytes, other object


def test_shared_batches_refuse_mutation():
    committed = _sample_batch(b"committed")
    encode_round([committed])
    _assert_read_only(committed)
    payload, _objects = encode_round([_sample_batch(b"decoded")])
    batch_module._DECODE_MEMO.pop(payload)
    (decoded,), _objects = decode_round(payload)
    _assert_read_only(decoded)
    # Reading a shared batch into a private one is not a mutation of it.
    assert len(WriteBatch().extend(committed)) == len(committed)


def test_decode_stays_private_and_mutable():
    shared = _sample_batch(b"private")
    encode_round([shared])
    private = WriteBatch.decode(shared.encode())
    assert private is not shared
    private.put(b"k", b"v").delete(b"memo/z")
    private.clear()
    assert len(shared) == 3  # the shared one is untouched


def test_equal_payloads_share_one_memo_entry():
    batch_module._DECODE_MEMO.clear()  # bounded by clearing: start well below the bound
    first, second = _sample_batch(b"twin"), _sample_batch(b"twin")
    payload, _ = encode_round([first])
    again, _ = encode_round([second])
    assert again == payload
    assert len(batch_module._DECODE_MEMO) == 1
    assert _items(decode_round(payload)[0]) == [list(first.items())]


def test_damaged_payload_misses_the_memo():
    batches = _post_round()
    expected = _items(batches)
    payload, _ = encode_round(batches)
    memoised = decode_round(payload)[0]
    with pytest.raises(CorruptionError):
        decode_round(payload[:-1])
    # Whatever byte is damaged, the memoised batches never come back.
    for position in range(len(payload)):
        damaged = bytearray(payload)
        damaged[position] ^= 0x01
        try:
            decoded, _objects = decode_round(bytes(damaged))
        except CorruptionError:
            continue
        assert decoded is not memoised
        assert _items(decoded) != expected
