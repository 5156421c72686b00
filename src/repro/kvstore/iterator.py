"""K-way merging and visibility filtering over internal records.

These generators glue the read path together: point-in-time scans merge
the memtable and every relevant table file, keep only the newest version
of each user key visible at the scan's start sequence, and drop deletion
tombstones.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Iterable, Iterator, Optional

from repro.kvstore.record import InternalRecord, ValueType


def merge_records(sources: list[Iterable[InternalRecord]]) -> Iterator[InternalRecord]:
    """Merge sorted record streams into one stream in internal sort order.

    When two sources carry records with identical sort keys (which only
    happens if the same physical record appears twice, e.g. during
    compaction of overlapping inputs), the earlier source wins — callers
    order sources newest-first.
    """
    # Entries order by (user key, -sequence, source priority); priorities
    # are unique, so a comparison never reaches the record.
    heap = []
    for priority, source in enumerate(sources):
        advance = iter(source).__next__
        try:
            first = advance()
        except StopIteration:
            continue
        heap.append((first[0], -first[1], priority, first, advance))
    heapify(heap)
    while heap:
        _key, _negated, priority, record, advance = heap[0]
        yield record
        try:
            following = advance()
        except StopIteration:
            heappop(heap)
        else:
            heapreplace(heap, (following[0], -following[1], priority, following, advance))


def visible_items(
    records: Iterable[InternalRecord],
    read_sequence: int,
    start: Optional[bytes] = None,
    end: Optional[bytes] = None,
) -> Iterator[tuple[bytes, bytes]]:
    """Reduce a merged record stream to user-visible ``(key, value)`` pairs.

    Records newer than ``read_sequence`` (the scan's start) are invisible;
    of the rest it picks the newest visible version per user key, skips
    deletion tombstones, and bounds output to ``[start, end)``.
    """
    current_key: Optional[bytes] = None
    for user_key, sequence, kind, value in records:
        if sequence > read_sequence:
            continue
        if user_key == current_key:
            continue  # an older, shadowed version
        current_key = user_key
        if start is not None and user_key < start:
            continue
        if end is not None and user_key >= end:
            return
        if kind != ValueType.DELETION:
            yield user_key, value
