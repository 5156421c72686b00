"""Reference encoder for the replication round layout.

:class:`repro.kvstore.batch.Round` computes a round's wire size without
building its bytes; this module builds the bytes, so tests can check the
size, and what the layout shares, against a literal encoding.

Layout::

    varint batch count, then per batch a varint op count, then per op:
      kind byte (0 deletion, 1 put)
      varint shared-prefix length (with the previous key of the round),
      varint suffix length, suffix
      (puts) varint value tag: ``length << 1`` followed by that many
             literal bytes, or ``index << 1 | 1``, a back-reference to the
             index-th literal longer than VALUE_TABLE_MIN_LEN in the round
"""

from __future__ import annotations

from repro.kvstore.batch import VALUE_TABLE_MIN_LEN
from repro.kvstore.record import ValueType
from repro.kvstore.varint import encode_varint


def _shared_len(previous: bytes, key: bytes) -> int:
    length = 0
    for a, b in zip(previous, key):
        if a != b:
            break
        length += 1
    return length


def _object_of(key: bytes) -> bytes:
    if key[:2] == b"o/" and b"/" in key[2:]:
        return key[2 : key.index(b"/", 2)]
    return key


def encode_round(batches) -> tuple[bytes, tuple]:
    """The round's bytes in the layout above and the sorted ids of the
    objects its keys belong to (``<oid>`` of ``o/<oid>/`` keys, else the
    key itself)."""
    parts = [encode_varint(len(batches))]
    table: dict[bytes, int] = {}
    objects = set()
    previous = b""
    for batch in batches:
        ops = list(batch.items())
        parts.append(encode_varint(len(ops)))
        for kind, key, value in ops:
            shared = _shared_len(previous, key)
            previous = key
            objects.add(_object_of(key))
            parts += (
                b"\x01" if kind is ValueType.VALUE else b"\x00",
                encode_varint(shared),
                encode_varint(len(key) - shared),
                key[shared:],
            )
            if kind is not ValueType.VALUE:
                continue
            if len(value) > VALUE_TABLE_MIN_LEN:
                index = table.get(value)
                if index is not None:
                    parts.append(encode_varint(index << 1 | 1))
                    continue
                table[value] = len(table)
            parts += (encode_varint(len(value) << 1), value)
    return b"".join(parts), tuple(sorted(objects))
