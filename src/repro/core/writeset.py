"""Buffered read/write sets: the mechanism behind invocation atomicity.

During a function invocation every write lands in a :class:`WriteSet`
instead of the store; reads consult the buffer first, then the committed
state.  At invocation end the buffer becomes one atomic
:class:`~repro.kvstore.batch.WriteBatch`.  The set also records the keys
and value digests the invocation *read*, which the consistent cache uses
as its validity condition (paper §4.2.2).

Every guest write reaches the store through :meth:`WriteSet.put`, so
that is where a request's equal values become one object: the first
encoded value written with given contents is kept in a table every
invocation of the request shares, and a later equal value is swapped for
it.  A Post's timeline entries in every follower, committed on one node
or several, are then one ``bytes`` object in every replica's store and
memtable, which apply the committed batch objects by reference.  The
table lives in the request's write sets alone, never in the guest's
:class:`~repro.core.context.InvocationContext`, and dies with the request.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.fields import ABSENT_DIGEST, value_digest
from repro.kvstore.batch import WriteBatch
from repro.kvstore.record import ValueType

_TOMBSTONE = object()


class WriteSet:
    """Invocation-local buffered writes plus the observed read set.

    A root invocation's write set starts a request's value table on its
    first write; :meth:`nested` hands the same table to each invocation
    the request nests, on this node or another.
    """

    def __init__(
        self,
        backing_get: Callable[[bytes], Optional[bytes]],
        track_reads: bool = True,
    ) -> None:
        self._backing_get = backing_get
        #: encoded value -> the first equal value written in the request;
        #: ``None`` until the request writes or nests
        self._values: Optional[dict[bytes, bytes]] = None
        #: key -> bytes or ``_TOMBSTONE``; a dict keeps first-write order
        self._writes: dict[bytes, object] = {}
        self._reads: dict[bytes, bytes] = {}
        #: read-set digests feed the consistent cache; runtimes with the
        #: cache disabled turn tracking off to skip the per-read hashing
        self._track_reads = track_reads

    # -- reads ------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Read through the buffer: own writes first, then committed state."""
        if key in self._writes:
            buffered = self._writes[key]
            return None if buffered is _TOMBSTONE else buffered  # type: ignore[return-value]
        value = self._backing_get(key)
        # Record what the committed state looked like, once per key: the
        # *first* observation defines the read set.
        if self._track_reads and key not in self._reads:
            self._reads[key] = value_digest(value) if value is not None else ABSENT_DIGEST
        return value

    # -- writes ------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Buffer a write; visible to this invocation's own reads.  The
        value buffered is the request's first value equal to it."""
        value = bytes(value)
        values = self._values
        if values is None:
            values = self._values = {}
        self._writes[key] = values.setdefault(value, value)

    def delete(self, key: bytes) -> None:
        """Buffer a deletion."""
        self._writes[key] = _TOMBSTONE

    def note_read(self, key: bytes, value: Optional[bytes]) -> None:
        """Record a committed-state observation made outside :meth:`get`
        (e.g. during a collection scan)."""
        if (
            self._track_reads
            and key not in self._writes
            and key not in self._reads
        ):
            self._reads[key] = value_digest(value) if value is not None else ABSENT_DIGEST

    def buffered_under(self, prefix: bytes) -> dict[bytes, Optional[bytes]]:
        """Buffered writes whose key starts with ``prefix``.

        Values are bytes, or ``None`` for buffered deletions.  Used to
        merge own writes into collection scans.
        """
        result: dict[bytes, Optional[bytes]] = {}
        for key, buffered in self._writes.items():
            if key.startswith(prefix):
                result[key] = None if buffered is _TOMBSTONE else buffered  # type: ignore[assignment]
        return result

    def nested(
        self, backing_get: Callable[[bytes], Optional[bytes]], track_reads: bool
    ) -> "WriteSet":
        """A write set for an invocation this one nests, in the same
        request: its own buffer and read set over ``backing_get`` (the
        owner's store), and this write set's value table."""
        if self._values is None:
            self._values = {}
        child = WriteSet(backing_get, track_reads)
        child._values = self._values
        return child

    # -- inspection -------------------------------------------------------

    @property
    def has_writes(self) -> bool:
        return bool(self._writes)

    def written_keys(self) -> list[bytes]:
        """Keys this invocation wrote, in first-write order."""
        return list(self._writes)

    def read_set(self) -> dict[bytes, bytes]:
        """Committed-state observations: key -> value digest (absent keys
        digest to a fixed sentinel)."""
        return dict(self._reads)

    # -- commit ------------------------------------------------------------

    def to_batch(self) -> WriteBatch:
        """Materialise the buffer as one atomic write batch (first-write
        order; :meth:`put` already made every value real ``bytes``)."""
        ops = []
        for key, value in self._writes.items():
            if value is _TOMBSTONE:
                ops.append((ValueType.DELETION, key, b""))
            else:
                ops.append((ValueType.VALUE, key, value))
        return WriteBatch.from_ops(ops)

    def clear(self) -> None:
        """Drop buffered writes and the read set (used at commit points);
        the request's value table stays."""
        self._writes.clear()
        self._reads.clear()
