"""Field declarations and the value codec.

Object types declare fields that are "either a single opaque piece of
data or a collection of data entries indexed by a key" (paper §3).
Values are arbitrary JSON-representable Python data; the codec fixes the
byte representation (sorted keys, compact separators) so value hashes —
which the consistent cache compares — are stable.

The codec is the hottest serialization path in the simulator (every
field read/write and every cache probe round-trips through it), so it
carries tag-dispatched fast paths for the dominant scalar/str cases and
a bounded digest memo.  Every fast path is byte-identical to the shared
fallback encoder; the property tests in ``tests/core`` pin that.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.errors import ModelError

_FIELD_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class FieldKind(Enum):
    """The two field shapes the model supports."""

    VALUE = "value"
    COLLECTION = "collection"


@dataclass(frozen=True)
class FieldSpec:
    """A declared field of an object type."""

    name: str
    kind: FieldKind
    #: default for value fields when the object is created without one
    default: Any = None

    def __post_init__(self) -> None:
        if not _FIELD_NAME.match(self.name):
            raise ModelError(f"invalid field name {self.name!r}")
        if self.kind == FieldKind.COLLECTION and self.default is not None:
            raise ModelError(f"collection field {self.name!r} cannot take a default")


def ValueField(name: str, default: Any = None) -> FieldSpec:
    """A single-value field (opaque datum)."""
    return FieldSpec(name, FieldKind.VALUE, default)


def CollectionField(name: str) -> FieldSpec:
    """A key-indexed collection field."""
    return FieldSpec(name, FieldKind.COLLECTION)


# -- codec ------------------------------------------------------------------

#: one shared encoder instead of ``json.dumps(..., sort_keys=True, ...)``:
#: dumps constructs a fresh JSONEncoder on every call when any non-default
#: kwarg is passed (only the all-defaults encoder is cached by the stdlib),
#: which profiling showed dominating the encode cost
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

#: strings json.dumps(ensure_ascii=True) emits verbatim between quotes:
#: printable ASCII (0x20-0x7e) minus the two escaped characters " and \
#: (everything else, including DEL 0x7f, becomes a \uXXXX escape)
_PLAIN_STR = re.compile(r'[ !#-\[\]-~]*\Z').match


def encode_value(value: Any) -> bytes:
    """Serialise a field value to canonical bytes.

    JSON with sorted keys and compact separators: equal values always
    produce equal bytes, which the read-set hashing in the consistent
    cache depends on, and so does the sharing of a request's equal values
    as one object (:meth:`~repro.core.writeset.WriteSet.put`).  Tuples
    become lists (JSON has no tuple).
    """
    kind = type(value)
    if kind is str:
        if _PLAIN_STR(value):
            return b'"%s"' % value.encode()
    elif kind is int:
        return b"%d" % value
    elif value is None:
        return b"null"
    elif kind is bool:
        return b"true" if value else b"false"
    try:
        return _ENCODE(value).encode()
    except (TypeError, ValueError) as error:
        raise ModelError(f"value is not JSON-representable: {error}") from None


_DECODER = json.JSONDecoder()
_raw_decode = _DECODER.raw_decode


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`.

    Fast paths mirror the encoder's: a quoted document with no escapes is
    sliced out directly, an all-digits document is an int, and the three
    JSON literals are compared outright.  Everything else goes through
    ``raw_decode`` instead of ``json.loads`` — it skips the pure-Python
    whitespace scan ``loads`` runs before and after every document, which
    is measurable because decoding happens on every storage read.  Safe
    because :func:`encode_value` output is compact with no surrounding
    whitespace.
    """
    first = data[:1]
    if first == b'"':
        # Escape sequences all contain a backslash, so a document without
        # one is the string's bytes verbatim between the quotes.
        if data[-1:] == b'"' and len(data) >= 2 and b"\\" not in data:
            return data[1:-1].decode()
    elif data.isdigit() or (first == b"-" and data[1:].isdigit()):
        return int(data)
    elif data == b"null":
        return None
    elif data == b"true":
        return True
    elif data == b"false":
        return False
    return _raw_decode(data.decode())[0]


#: bounded memo for repeated digest inputs: cache keys, hot object fields,
#: and replication re-validation hash the same encoded bytes over and over
#: (bytes objects cache their own hash, so lookups are one dict probe)
_DIGEST_MEMO: dict[bytes, bytes] = {}
_DIGEST_MEMO_MAX = 8192


#: the digest a read set records for an absent storage key
ABSENT_DIGEST = b"\x00" * 8


def value_digest(data: bytes) -> bytes:
    """Short stable digest of an encoded value, for cache read sets."""
    digest = _DIGEST_MEMO.get(data)
    if digest is None:
        digest = hashlib.blake2b(data, digest_size=8).digest()
        if len(_DIGEST_MEMO) >= _DIGEST_MEMO_MAX:
            _DIGEST_MEMO.clear()
        _DIGEST_MEMO[bytes(data)] = digest
    return digest
