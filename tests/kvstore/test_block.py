"""Unit and property tests for data blocks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.kvstore.block import Block, BlockBuilder, shared_prefix_length
from repro.kvstore.record import InternalRecord, MAX_SEQUENCE, ValueType


def build_block(records):
    builder = BlockBuilder()
    for record in records:
        builder.add(record)
    return Block.decode(builder.finish())


def test_roundtrip_preserves_records():
    records = [
        InternalRecord(b"apple", 3, ValueType.VALUE, b"red"),
        InternalRecord(b"apricot", 2, ValueType.VALUE, b"orange"),
        InternalRecord(b"banana", 1, ValueType.DELETION, b""),
    ]
    block = build_block(records)
    assert list(block) == records


def test_prefix_compression_shrinks_shared_keys():
    shared = [InternalRecord(b"prefix/long/key/%03d" % i, i + 1, ValueType.VALUE, b"v") for i in range(50)]
    builder = BlockBuilder()
    for record in sorted(shared, key=lambda r: r.sort_key()):
        builder.add(record)
    compressed_size = len(builder.finish())
    raw_size = sum(len(r.user_key) + len(r.value) + 9 for r in shared)
    assert compressed_size < raw_size


def test_get_finds_newest_visible():
    records = [
        InternalRecord(b"k", 5, ValueType.VALUE, b"v5"),
        InternalRecord(b"k", 2, ValueType.VALUE, b"v2"),
    ]
    block = build_block(records)
    assert block.get(b"k", MAX_SEQUENCE).value == b"v5"
    assert block.get(b"k", 3).value == b"v2"
    assert block.get(b"k", 1) is None
    assert block.get(b"missing", MAX_SEQUENCE) is None


def test_seek_returns_position():
    records = [
        InternalRecord(b"a", 1, ValueType.VALUE, b""),
        InternalRecord(b"c", 2, ValueType.VALUE, b""),
    ]
    block = build_block(records)
    assert block.seek(b"b", MAX_SEQUENCE) == 1
    assert list(block.records_from(1))[0].user_key == b"c"


def test_crc_detects_corruption():
    builder = BlockBuilder()
    builder.add(InternalRecord(b"key", 1, ValueType.VALUE, b"value"))
    data = bytearray(builder.finish())
    data[2] ^= 0xFF
    with pytest.raises(CorruptionError):
        Block.decode(bytes(data))


def test_too_short_block_rejected():
    with pytest.raises(CorruptionError):
        Block.decode(b"tiny")


def test_builder_reset_allows_reuse():
    builder = BlockBuilder()
    builder.add(InternalRecord(b"a", 1, ValueType.VALUE, b"1"))
    builder.finish()
    builder.reset()
    builder.add(InternalRecord(b"b", 2, ValueType.VALUE, b"2"))
    block = Block.decode(builder.finish())
    assert [r.user_key for r in block] == [b"b"]


def test_restart_points_every_interval():
    builder = BlockBuilder(restart_interval=4)
    records = [InternalRecord(b"key%02d" % i, i + 1, ValueType.VALUE, b"") for i in range(10)]
    for record in records:
        builder.add(record)
    block = Block.decode(builder.finish())
    assert list(block) == records


_record_lists = st.lists(
    st.tuples(st.binary(min_size=1, max_size=12), st.binary(max_size=32)),
    min_size=1,
    max_size=100,
    unique_by=lambda t: t[0],
)


@given(_record_lists)
def test_roundtrip_property(pairs):
    records = sorted(
        (
            InternalRecord(key, seq + 1, ValueType.VALUE, value)
            for seq, (key, value) in enumerate(pairs)
        ),
        key=lambda r: r.sort_key(),
    )
    block = build_block(records)
    assert list(block) == records
    for record in records:
        found = block.get(record.user_key, MAX_SEQUENCE)
        assert found is not None and found.value == record.value


def byte_loop_prefix_length(a, b):
    """The slow reference :func:`shared_prefix_length` is pinned to."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


@pytest.mark.parametrize(
    "a,b",
    [
        (b"", b""),
        (b"", b"abc"),
        (b"same", b"same"),
        (b"pre", b"prefix"),
        (b"prefix", b"pre"),
        (b"\x80\xff\x80", b"\x80\xff\x81"),
        (b"\xff" * 40, b"\xff" * 39 + b"\xfe"),
        (b"\x00\x00a", b"\x00\x00b"),
        (b"\x00", b"\x00\x00"),
    ],
)
def test_shared_prefix_known_cases(a, b):
    assert shared_prefix_length(a, b) == byte_loop_prefix_length(a, b)


@given(st.binary(max_size=24), st.binary(max_size=24), st.binary(max_size=24))
def test_shared_prefix_matches_byte_loop(common, tail_a, tail_b):
    a, b = common + tail_a, common + tail_b
    expected = byte_loop_prefix_length(a, b)
    assert expected >= len(common)
    assert shared_prefix_length(a, b) == expected
    assert shared_prefix_length(b, a) == expected


# Sizes on both sides of the one-, two- and three-byte varint boundaries,
# so every header encoding the builder and the decoder special-case occurs.
_sizes = st.sampled_from([0, 1, 127, 128, 129, 3300, 16_383, 16_384, 20_000])
_mixed_records = st.lists(
    st.tuples(
        st.sampled_from([b"", b"o/user:0001/f/", b"k" * 127, b"k" * 130]),
        st.binary(max_size=6),
        st.booleans(),
        _sizes,
    ),
    min_size=1,
    max_size=60,
)


@given(_mixed_records, st.integers(min_value=1, max_value=20))
def test_roundtrip_across_restart_boundaries(specs, restart_interval):
    records = sorted(
        (
            InternalRecord(
                prefix + suffix,
                sequence + 1,
                ValueType.DELETION if deleted else ValueType.VALUE,
                b"" if deleted else bytes([sequence % 251]) * size,
            )
            for sequence, (prefix, suffix, deleted, size) in enumerate(specs)
        ),
        key=lambda r: r.sort_key(),
    )
    builder = BlockBuilder(restart_interval=restart_interval)
    sizes = [builder.add(record) for record in records]
    encoded = builder.finish()
    # add() reports what finish() then writes, minus the 4-byte CRC.
    assert sizes[-1] == len(encoded) - 4
    assert sizes == sorted(sizes)
    decoded = list(Block.decode(encoded))
    assert decoded == records
    assert all(type(r) is InternalRecord and type(r.kind) is ValueType for r in decoded)


def test_out_of_range_sequence_rejected():
    builder = BlockBuilder()
    with pytest.raises(ValueError):
        builder.add(InternalRecord(b"k", MAX_SEQUENCE + 1, ValueType.VALUE, b""))
    with pytest.raises(ValueError):
        builder.add(InternalRecord(b"k", -1, ValueType.VALUE, b""))
