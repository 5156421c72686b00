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
        #: set once the batch is in the decode memo, where every replica
        #: of this process applies the same object
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

    def clear(self) -> None:
        """Drop all recorded operations."""
        self._check_private()
        self._ops.clear()

    def extend(self, other: "WriteBatch") -> "WriteBatch":
        """Append all operations from ``other`` (after this batch's own)."""
        self._check_private()
        self._ops.extend(other._ops)
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
        return _encode_ops(self._ops)[0]

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


def _encode_ops(ops: list, prefix_width: int = 0) -> tuple[bytes, set]:
    """The payload of ``ops`` and, from the same walk, the distinct
    leading ``prefix_width`` bytes of their keys (none for a width of 0)."""
    prefixes = set()
    parts = [encode_varint(len(ops))]
    for kind, key, value in ops:
        if prefix_width:
            prefixes.add(key[:prefix_width])
        if kind is ValueType.VALUE:
            parts += (b"\x01", encode_varint(len(key)), key, encode_varint(len(value)), value)
        else:
            parts += (b"\x00", encode_varint(len(key)), key)
    return b"".join(parts), prefixes


#: bounded memo of batches keyed by their encoded payload.  Replication
#: fans one frame out to every backup and re-reads applied payloads
#: during cache invalidation, all in the process that encoded them, so
#: the batch behind a payload is looked up, not re-parsed; bytes objects
#: cache their own hash, making hits one dict probe.  Bounded by dropping
#: the older half when full: payload reuse is bursty and short-lived, so
#: what a backup has yet to apply is among the newest entries and an LRU
#: order would buy nothing more.
_DECODE_MEMO: dict[bytes, WriteBatch] = {}
_DECODE_MEMO_MAX = 1024


def _share(payload: bytes, batch: WriteBatch) -> None:
    batch._shared = True
    if len(_DECODE_MEMO) >= _DECODE_MEMO_MAX:
        for stale in list(islice(_DECODE_MEMO, _DECODE_MEMO_MAX // 2)):
            del _DECODE_MEMO[stale]
    _DECODE_MEMO[payload] = batch


def encode_shared(batch: WriteBatch, prefix_width: int) -> tuple[bytes, set]:
    """Encode ``batch`` for consumers in this process: one walk of its
    operations gives the payload and the distinct ``prefix_width``-byte
    key prefixes it wrote under, and the batch itself enters the decode
    memo under that payload, so :func:`decode_shared` of these bytes
    returns it without parsing.

    From here on the batch is SHARED and refuses mutation.  Only bytes
    this function (or an earlier decode) produced can hit the memo: a
    damaged or foreign payload is a different key and goes through
    :meth:`WriteBatch.decode` and its checks.
    """
    payload, prefixes = _encode_ops(batch._ops, prefix_width)
    _share(payload, batch)
    return payload, prefixes


def decode_shared(data: bytes) -> WriteBatch:
    """Decode ``data``, memoising the result across identical payloads.

    The returned batch is SHARED: it can be iterated and applied to
    storage, and raises :class:`ReadOnlyError` on ``put``, ``delete``,
    ``extend`` or ``clear``.  Use :meth:`WriteBatch.decode` when a
    private copy is needed.
    """
    batch = _DECODE_MEMO.get(data)
    if batch is None:
        batch = WriteBatch.decode(data)
        _share(data, batch)
    return batch


def _check_bytes(label: str, data: bytes) -> None:
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError(f"{label} must be bytes-like, got {type(data).__name__}")
