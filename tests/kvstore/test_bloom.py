"""Unit and property tests for the bloom filter."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptionError
import math

from repro.kvstore.bloom import BloomFilter, hash_key


def test_contains_all_inserted_keys():
    keys = [f"key-{i}".encode() for i in range(1000)]
    filt = BloomFilter.build(keys)
    assert all(filt.may_contain(k) for k in keys)


def test_false_positive_rate_reasonable():
    keys = [f"present-{i}".encode() for i in range(2000)]
    filt = BloomFilter.build(keys, bits_per_key=10)
    false_positives = sum(
        filt.may_contain(f"absent-{i}".encode()) for i in range(2000)
    )
    # 10 bits/key targets ~1%; allow generous slack.
    assert false_positives < 100


def test_empty_filter_rejects_everything_or_nothing_safely():
    filt = BloomFilter.build([])
    # No inserted keys: must never claim false negatives (vacuous) and
    # typically rejects arbitrary keys.
    assert not filt.may_contain(b"anything")


def test_encode_decode_roundtrip():
    keys = [f"k{i}".encode() for i in range(100)]
    filt = BloomFilter.build(keys)
    decoded = BloomFilter.decode(filt.encode())
    assert all(decoded.may_contain(k) for k in keys)


def test_decode_rejects_short_data():
    with pytest.raises(CorruptionError):
        BloomFilter.decode(b"\x01")


def test_decode_rejects_zero_probes():
    with pytest.raises(CorruptionError):
        BloomFilter.decode(b"\x00" + b"\xff" * 8)


def test_bad_bits_per_key_rejected():
    with pytest.raises(ValueError):
        BloomFilter.build([b"k"], bits_per_key=0)


@given(st.lists(st.binary(max_size=32), max_size=200))
def test_no_false_negatives_property(keys):
    filt = BloomFilter.build(keys, bits_per_key=8)
    for key in keys:
        assert filt.may_contain(key)


@given(st.lists(st.binary(max_size=32), max_size=100))
def test_serialisation_preserves_membership(keys):
    filt = BloomFilter.build(keys)
    decoded = BloomFilter.decode(filt.encode())
    for key in keys:
        assert decoded.may_contain(key)


def reference_filter_bytes(keys, bits_per_key):
    """The filter block the per-key insert loop produces: every key, a
    duplicate as often as it is listed, set bit by bit."""
    bits = bytearray((max(64, len(keys) * bits_per_key) + 7) // 8)
    num_bits = len(bits) * 8
    num_probes = max(1, min(30, round(bits_per_key * math.log(2))))
    for key in keys:
        digest = hash_key(key)
        h1 = digest & 0xFFFFFFFF
        h2 = (digest >> 32) & 0xFFFFFFFF
        for i in range(num_probes):
            pos = (h1 + i * h2) % num_bits
            bits[pos // 8] |= 1 << (pos % 8)
    return bytes([num_probes]) + bytes(bits)


_keys_with_runs = st.lists(
    st.tuples(st.binary(max_size=16), st.integers(min_value=1, max_value=4)), max_size=80
).map(lambda runs: [key for key, repeat in runs for _ in range(repeat)])


@given(_keys_with_runs, st.integers(min_value=1, max_value=20))
def test_build_matches_per_key_insert_loop(keys, bits_per_key):
    filt = BloomFilter.build(keys, bits_per_key=bits_per_key)
    assert filt.encode() == reference_filter_bytes(keys, bits_per_key)
    for key in keys:
        assert filt.may_contain(key)


def test_consecutive_duplicates_count_towards_size():
    once = BloomFilter.build([b"k"] * 1)
    often = BloomFilter.build([b"k"] * 200)
    assert often.size_bytes > once.size_bytes
    assert often.may_contain(b"k")
