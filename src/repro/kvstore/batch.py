"""Atomic write batches.

A :class:`WriteBatch` collects puts and deletes that the DB applies as one
atomic, durable unit: the serialised batch is one WAL record, and either
every operation in it is recovered or none is.  This is the primitive the
LambdaObjects runtime commits invocation write sets through.  A
:class:`Round` is the batches one invocation committed on a node, as the
primary replicates them to its backups.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.errors import CorruptionError, ReadOnlyError
from repro.kvstore.record import ValueType
from repro.kvstore.varint import decode_varint, encode_varint, varint_length


class WriteBatch:
    """An ordered collection of puts/deletes applied atomically."""

    def __init__(self) -> None:
        self._ops: list[tuple[ValueType, bytes, bytes]] = []
        #: set once the batch is part of a :class:`Round`, whose batch
        #: objects every replica of this process applies
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
            raise ReadOnlyError("write batch is part of a replication round; it is read-only")

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
# shipped to the backups as one unit.  Backups of this process apply the
# primary's batch objects themselves, so a round is never serialised: it
# carries the batches, the objects they wrote and its wire size.  The size
# is what the round layout below takes.  Retwis's Post writes one post
# into the author's posts, the author's timeline and every follower's
# timeline, and consecutive keys of one object share their ``o/<oid>/``
# prefix, so the layout stores each long value once and each key as the
# bytes it shares with the previous key plus a suffix:
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


class Round(NamedTuple):
    """One replication round, built once per committed round by :meth:`of`.

    Its batches are the committed batch objects themselves, which every
    backup of the shard applies in order; building the round makes them
    read-only (``put`` and ``delete`` raise :class:`ReadOnlyError`).
    """

    #: the committed batches, in commit order
    batches: tuple
    #: sorted ids of the objects the batches' keys belong to (the
    #: per-object read-barrier and dirtiness hints)
    objects: tuple
    #: wire bytes of the round in the layout above
    size: int

    @classmethod
    def of(cls, batches) -> "Round":
        """The round of ``batches``, its objects and size from one walk."""
        size = varint_length(len(batches))
        table: dict[bytes, int] = {}
        objects = set()
        previous = b""
        for batch in batches:
            batch._shared = True
            ops = batch._ops
            size += varint_length(len(ops))
            for kind, key, value in ops:
                shared = _shared_len(previous, key)
                previous = key
                objects.add(_object_of(key))
                suffix = len(key) - shared
                size += 1 + varint_length(shared) + varint_length(suffix) + suffix
                if kind is not ValueType.VALUE:
                    continue
                length = len(value)
                if length > VALUE_TABLE_MIN_LEN:
                    index = table.get(value)
                    if index is not None:
                        size += varint_length(index << 1 | 1)
                        continue
                    table[value] = len(table)
                size += varint_length(length << 1) + length
        return cls(tuple(batches), tuple(sorted(objects)), size)


def _check_bytes(label: str, data: bytes) -> None:
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"{label} must be bytes-like, got {type(data).__name__}")
