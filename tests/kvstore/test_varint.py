"""Unit and property tests for varint encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.kvstore.varint import decode_varint, encode_varint


@pytest.mark.parametrize(
    "value,encoded",
    [
        (0, b"\x00"),
        (1, b"\x01"),
        (127, b"\x7f"),
        (128, b"\x80\x01"),
        (300, b"\xac\x02"),
    ],
)
def test_known_encodings(value, encoded):
    assert encode_varint(value) == encoded
    assert decode_varint(encoded) == (value, len(encoded))


def test_negative_rejected():
    with pytest.raises(ValueError):
        encode_varint(-1)


def test_truncated_input_raises():
    with pytest.raises(CorruptionError):
        decode_varint(b"\x80")


def test_overlong_input_raises():
    with pytest.raises(CorruptionError):
        decode_varint(b"\xff" * 11)


def test_decode_at_offset():
    data = b"junk" + encode_varint(500)
    assert decode_varint(data, 4)[0] == 500


@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_roundtrip(value):
    encoded = encode_varint(value)
    decoded, consumed = decode_varint(encoded)
    assert decoded == value
    assert consumed == len(encoded)


_BOUNDARIES = [0, 127, 128, 16_383, 16_384, 2**63 - 1]


@pytest.mark.parametrize("value", _BOUNDARIES)
def test_roundtrip_at_length_boundaries(value):
    encoded = encode_varint(value)
    assert len(encoded) == max(1, (value.bit_length() + 6) // 7)
    assert decode_varint(encoded) == (value, len(encoded))
    assert decode_varint(b"\xff" + encoded, 1) == (value, 1 + len(encoded))


@pytest.mark.parametrize("value", _BOUNDARIES)
def test_every_truncation_raises_corruption(value):
    encoded = encode_varint(value)
    for cut in range(len(encoded)):
        with pytest.raises(CorruptionError):
            decode_varint(encoded[:cut])
