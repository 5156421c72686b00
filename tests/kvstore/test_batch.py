"""Unit and property tests for WriteBatch."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptionError, ReadOnlyError
from repro.kvstore.batch import WriteBatch, decode_shared, encode_shared
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


def test_encode_shared_enters_the_batch_under_its_own_payload():
    batch = _sample_batch(b"own")
    payload, prefixes = encode_shared(batch, 6)
    assert payload == _sample_batch(b"own").encode()
    assert prefixes == {b"memo/o", b"memo/g", b"memo/z"}
    assert encode_shared(_sample_batch(b"narrow"), 4)[1] == {b"memo"}
    # A backup in this process gets the committed batch itself: no parse.
    assert decode_shared(payload) is batch
    assert decode_shared(bytes(bytearray(payload))) is batch  # equal bytes, other object


def test_shared_batches_refuse_mutation():
    committed = _sample_batch(b"committed")
    encode_shared(committed, 0)
    _assert_read_only(committed)
    decoded = decode_shared(_sample_batch(b"decoded").encode())
    _assert_read_only(decoded)
    # Reading a shared batch into a private one is not a mutation of it.
    assert len(WriteBatch().extend(committed)) == len(committed)


def test_decode_stays_private_and_mutable():
    payload, _prefixes = encode_shared(_sample_batch(b"private"), 0)
    private = WriteBatch.decode(payload)
    assert private is not decode_shared(payload)
    private.put(b"k", b"v").delete(b"memo/z")
    private.clear()
    assert len(decode_shared(payload)) == 3  # the shared one is untouched


def test_equal_payloads_share_one_memo_entry():
    from repro.kvstore import batch as batch_module

    batch_module._DECODE_MEMO.clear()  # bounded by clearing: start well below the bound
    first, second = _sample_batch(b"twin"), _sample_batch(b"twin")
    payload, _ = encode_shared(first, 0)
    again, _ = encode_shared(second, 0)
    assert again == payload
    assert len(batch_module._DECODE_MEMO) == 1
    assert list(decode_shared(payload).items()) == list(first.items())


def test_damaged_payload_misses_the_memo():
    batch = _sample_batch(b"damaged")
    payload, _ = encode_shared(batch, 0)
    flipped = bytearray(payload)
    flipped[1] ^= 0x08  # the first op's kind byte: 1 -> 9
    with pytest.raises(CorruptionError):
        decode_shared(bytes(flipped))
    with pytest.raises(CorruptionError):
        decode_shared(payload[:-1])
    # Whatever byte is damaged, the memoised batch is never what comes back.
    for position in range(len(payload)):
        damaged = bytearray(payload)
        damaged[position] ^= 0x01
        try:
            decoded = decode_shared(bytes(damaged))
        except CorruptionError:
            continue
        assert decoded is not batch
        assert list(decoded.items()) == list(WriteBatch.decode(bytes(damaged)).items())
        assert list(decoded.items()) != list(batch.items())
