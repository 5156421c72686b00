"""Atomic write batches.

A :class:`WriteBatch` collects puts and deletes that the DB applies as one
atomic, durable unit: the serialised batch is one WAL record, and either
every operation in it is recovered or none is.  This is the primitive the
LambdaObjects runtime commits invocation write sets through.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator

from repro.errors import CorruptionError, ReadOnlyError
from repro.kvstore.record import ValueType
from repro.kvstore.varint import decode_varint, encode_varint


class WriteBatch:
    """An ordered collection of puts/deletes applied atomically."""

    def __init__(self) -> None:
        self._ops: list[tuple[ValueType, bytes, bytes]] = []
        #: set once the batch is in the round decode memo, where every
        #: replica of this process applies the same object
        self._shared = False

    @classmethod
    def from_ops(cls, ops: list[tuple[ValueType, bytes, bytes]]) -> "WriteBatch":
        """A batch that takes ownership of ``ops``: ``(kind, key, value)``
        with real ``bytes`` and ``b""`` as a deletion's value, which is
        what :meth:`put` and :meth:`delete` would have recorded."""
        batch = cls()
        batch._ops = ops
        return batch

    def __len__(self) -> int:
        return len(self._ops)

    def __bool__(self) -> bool:
        return bool(self._ops)

    def put(self, key: bytes, value: bytes) -> "WriteBatch":
        """Record a put; later operations on the same key win."""
        self._check_private()
        # Fast path: callers overwhelmingly pass real bytes, and
        # ``bytes(b)`` on a bytes object returns the same object anyway.
        if type(key) is bytes and type(value) is bytes:
            self._ops.append((ValueType.VALUE, key, value))
            return self
        _check_bytes("key", key)
        _check_bytes("value", value)
        self._ops.append((ValueType.VALUE, bytes(key), bytes(value)))
        return self

    def delete(self, key: bytes) -> "WriteBatch":
        """Record a deletion of ``key``."""
        self._check_private()
        if type(key) is bytes:
            self._ops.append((ValueType.DELETION, key, b""))
            return self
        _check_bytes("key", key)
        self._ops.append((ValueType.DELETION, bytes(key), b""))
        return self

    def _check_private(self) -> None:
        if self._shared:
            raise ReadOnlyError("write batch is shared through the decode memo; it is read-only")

    def items(self) -> Iterator[tuple[ValueType, bytes, bytes]]:
        """Iterate ``(kind, key, value)`` in insertion order."""
        return iter(self._ops)

    # -- serialisation (WAL payload) ------------------------------------

    def encode(self) -> bytes:
        """Serialise to the WAL payload format.

        Layout: varint op-count, then per op: 1-byte kind, varint key
        length, key, and (for puts) varint value length + value.
        """
        return _encode_ops(self._ops)

    @classmethod
    def decode(cls, data: bytes) -> "WriteBatch":
        """Inverse of :meth:`encode`; raises ``CorruptionError`` on damage."""
        batch = cls()
        ops = batch._ops
        count, pos = decode_varint(data, 0)
        size = len(data)
        for _ in range(count):
            if pos >= size:
                raise CorruptionError("write batch truncated (missing op)")
            kind_byte = data[pos]
            pos += 1
            try:
                kind = ValueType(kind_byte)
            except ValueError:
                raise CorruptionError(f"write batch has bad op kind {kind_byte}") from None
            key_len, pos = decode_varint(data, pos)
            key = data[pos : pos + key_len]
            if len(key) != key_len:
                raise CorruptionError("write batch truncated (short key)")
            pos += key_len
            if kind == ValueType.VALUE:
                value_len, pos = decode_varint(data, pos)
                value = data[pos : pos + value_len]
                if len(value) != value_len:
                    raise CorruptionError("write batch truncated (short value)")
                pos += value_len
                ops.append((ValueType.VALUE, key, value))
            else:
                ops.append((ValueType.DELETION, key, b""))
        if pos != size:
            raise CorruptionError("write batch has trailing garbage")
        return batch


def _encode_ops(ops: list) -> bytes:
    parts = [encode_varint(len(ops))]
    for kind, key, value in ops:
        if kind is ValueType.VALUE:
            parts += (b"\x01", encode_varint(len(key)), key, encode_varint(len(value)), value)
        else:
            parts += (b"\x00", encode_varint(len(key)), key)
    return b"".join(parts)


# -- replication rounds ----------------------------------------------------
#
# A replication round is every batch one invocation committed on a node,
# shipped as one payload.  Retwis's Post writes one post into the
# author's posts, the author's timeline and every follower's timeline,
# and consecutive keys of one object share their ``o/<oid>/`` prefix, so
# the round layout stores each long value once and each key as the bytes
# it shares with the previous key plus a suffix:
#
#   varint batch count, then per batch a varint op count, then per op:
#     kind byte (0 deletion, 1 put)
#     varint shared-prefix length, varint suffix length, suffix
#     (puts) varint value tag: ``length << 1`` followed by that many
#            literal bytes, or ``index << 1 | 1``, a back-reference to the
#            index-th literal longer than VALUE_TABLE_MIN_LEN in the round

#: literal values longer than this enter the round's value table; shorter
#: ones (counters, small fields) cost no more than a back-reference
VALUE_TABLE_MIN_LEN = 8


def _shared_len(previous: bytes, key: bytes) -> int:
    """Length of the longest common prefix of ``previous`` and ``key``:
    the leading zero bytes of their big-endian XOR."""
    width = min(len(previous), len(key))
    diff = int.from_bytes(previous[:width], "big") ^ int.from_bytes(key[:width], "big")
    return width - (diff.bit_length() + 7) // 8


def _object_of(key: bytes) -> bytes:
    """The object id a storage key belongs to under the ``o/<oid>/...``
    layout of :mod:`repro.core.keyspace` (the key itself for keys outside
    it, conservatively)."""
    if key[:2] == b"o/":
        end = key.find(b"/", 2)
        if end >= 0:
            return key[2:end]
    return key


def encode_round(batches: list[WriteBatch]) -> tuple[bytes, tuple]:
    """Encode one replication round: the payload in the round layout
    above and, from the same walk, the sorted ids of the objects its keys
    belong to (the per-object read-barrier and dirtiness hints).

    The batches enter the decode memo under the payload, so
    :func:`decode_round` of these bytes in this process returns these
    very batches without parsing; from here on they are SHARED and
    refuse mutation.  Only bytes this function (or an earlier decode)
    produced can hit the memo: a damaged or foreign payload is a
    different key and is parsed with every check.
    """
    parts = [encode_varint(len(batches))]
    table: dict[bytes, int] = {}
    objects = set()
    previous = b""
    for batch in batches:
        ops = batch._ops
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
    payload = b"".join(parts)
    objects = tuple(sorted(objects))
    _remember(payload, (tuple(batches), objects))
    return payload, objects


def decode_round(data: bytes) -> tuple[tuple, tuple]:
    """``(batches, objects)`` of a round payload, memoised across
    identical payloads; raises ``CorruptionError`` on damage.

    The batches are SHARED: they can be iterated and applied to storage,
    and raise :class:`ReadOnlyError` on ``put`` or ``delete``.
    ``objects`` is what :func:`encode_round` returned for the same round.
    """
    entry = _DECODE_MEMO.get(data)
    if entry is None:
        entry = _parse_round(data)
        _remember(data, entry)
    return entry


def _parse_round(data: bytes) -> tuple[tuple, tuple]:
    size = len(data)
    table: list[bytes] = []
    objects = set()
    batches = []
    previous = b""
    count, pos = decode_varint(data, 0)
    for _ in range(count):
        op_count, pos = decode_varint(data, pos)
        ops = []
        for _ in range(op_count):
            if pos >= size:
                raise CorruptionError("replication round truncated (missing op)")
            kind_byte = data[pos]
            pos += 1
            if kind_byte > 1:
                raise CorruptionError(f"replication round has bad op kind {kind_byte}")
            kind = ValueType(kind_byte)
            shared, pos = decode_varint(data, pos)
            if shared > len(previous):
                raise CorruptionError(
                    f"replication round key shares {shared} bytes of a "
                    f"{len(previous)}-byte previous key"
                )
            suffix_len, pos = decode_varint(data, pos)
            suffix = data[pos : pos + suffix_len]
            if len(suffix) != suffix_len:
                raise CorruptionError("replication round truncated (short key)")
            pos += suffix_len
            key = previous[:shared] + suffix
            previous = key
            objects.add(_object_of(key))
            if kind is ValueType.DELETION:
                ops.append((kind, key, b""))
                continue
            tag, pos = decode_varint(data, pos)
            if tag & 1:
                index = tag >> 1
                if index >= len(table):
                    raise CorruptionError(
                        f"replication round refers to value {index} of {len(table)}"
                    )
                value = table[index]
            else:
                value_len = tag >> 1
                value = data[pos : pos + value_len]
                if len(value) != value_len:
                    raise CorruptionError("replication round truncated (short value)")
                pos += value_len
                if value_len > VALUE_TABLE_MIN_LEN:
                    table.append(value)
            ops.append((kind, key, value))
        batches.append(WriteBatch.from_ops(ops))
    if pos != size:
        raise CorruptionError("replication round has trailing garbage")
    return tuple(batches), tuple(sorted(objects))


#: bounded memo of decoded rounds keyed by their payload.  Replication
#: fans one frame out to every backup and re-reads applied payloads
#: during cache invalidation and lease absorption, all in the process
#: that encoded them, so the batches behind a payload are looked up, not
#: re-parsed; bytes objects cache their own hash, making hits one dict
#: probe.  Bounded by dropping the older half when full: payload reuse is
#: bursty and short-lived (encode to the last backup's apply), so what a
#: backup has yet to apply is among the newest entries and an LRU order
#: would buy nothing more.  An entry is a whole invocation's writes (a
#: Post's holds one batch per follower), so the bound is small; a miss
#: only costs a parse.
_DECODE_MEMO: dict[bytes, tuple[tuple, tuple]] = {}
_DECODE_MEMO_MAX = 64


def _remember(payload: bytes, entry: tuple[tuple, tuple]) -> None:
    for batch in entry[0]:
        batch._shared = True
    if len(_DECODE_MEMO) >= _DECODE_MEMO_MAX:
        for stale in list(islice(_DECODE_MEMO, _DECODE_MEMO_MAX // 2)):
            del _DECODE_MEMO[stale]
    _DECODE_MEMO[payload] = entry


def _check_bytes(label: str, data: bytes) -> None:
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"{label} must be bytes-like, got {type(data).__name__}")
