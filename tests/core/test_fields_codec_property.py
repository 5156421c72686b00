"""Property tests pinning the codec fast paths to the legacy encoder.

``encode_value``/``decode_value`` carry tag-dispatched fast paths (plain
strings, ints, literals) that must stay byte-identical to the historical
``json.dumps(sort_keys=True, separators=(",", ":"))`` — the consistent
cache compares digests of these bytes across nodes, so any divergence is
a correctness bug, not a formatting one.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fields import decode_value, encode_value, value_digest
from repro.kvstore.batch import WriteBatch


def _legacy_encode(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


#: JSON-native values (what guests may store in fields): scalars plus
#: nested lists/objects.  Floats stay finite — NaN/inf are not JSON.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
)
_json_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)


@settings(max_examples=300)
@given(_json_values)
def test_encode_matches_legacy_json_dumps(value):
    assert encode_value(value) == _legacy_encode(value)


@settings(max_examples=300)
@given(_json_values)
def test_decode_round_trips(value):
    assert decode_value(encode_value(value)) == value


#: adversarial strings for the plain-string fast path: quotes,
#: backslashes, control characters, DEL, non-ASCII (escaped by the
#: stdlib's ensure_ascii), and the boundary characters of _PLAIN_STR
@settings(max_examples=300)
@given(st.text(alphabet=st.characters(min_codepoint=0, max_codepoint=0x100)))
def test_string_fast_path_matches_legacy(text):
    encoded = encode_value(text)
    assert encoded == _legacy_encode(text)
    assert decode_value(encoded) == text


def test_string_fast_path_boundaries():
    for text in ('"', "\\", "\x7f", "\x1f", " ", "~", "ü", "a\\nb", 'say "hi"'):
        assert encode_value(text) == _legacy_encode(text)
        assert decode_value(encode_value(text)) == text


@settings(max_examples=200)
@given(st.integers())
def test_int_fast_path_matches_legacy(number):
    assert encode_value(number) == _legacy_encode(number)
    assert decode_value(encode_value(number)) == number


@settings(max_examples=200)
@given(st.binary(max_size=64))
def test_digest_memo_matches_direct_hash(data):
    expected = hashlib.blake2b(data, digest_size=8).digest()
    assert value_digest(data) == expected
    assert value_digest(data) == expected  # memo hit returns the same


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.binary(max_size=16), st.binary(max_size=32), st.booleans()),
        max_size=8,
    )
)
def test_write_batch_round_trip_and_shared_decode(ops):
    batch = WriteBatch()
    for key, value, is_delete in ops:
        if is_delete:
            batch.delete(key)
        else:
            batch.put(key, value)
    expected = list(batch.items())
    plain = WriteBatch.decode(batch.encode())
    assert list(plain.items()) == expected
