"""SSTable writer and reader.

On-disk layout::

    [data block 0][data block 1]...[filter block][index block][footer]

The index block maps each data block's *last* internal key to its file
offset and size, so a point lookup binary-searches the index, reads one
block (through the LRU cache), and binary-searches inside it.  The filter
block is one bloom filter over every user key in the table.  The footer
pins the index/filter locations and ends with a magic number.
"""

from __future__ import annotations

import bisect
import os
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, NamedTuple, Optional

from repro.errors import CorruptionError
from repro.kvstore.block import Block, BlockBuilder
from repro.kvstore.bloom import BloomFilter, hash_key
from repro.kvstore.cache import LRUCache
from repro.kvstore.record import InternalRecord, record_sort_key
from repro.kvstore.varint import decode_varint, encode_varint

MAGIC = 0x4C616D626461_4F62  # "Lambda Ob"
_FOOTER = struct.Struct(">QQQQQ")  # filter off/size, index off/size, magic
TARGET_BLOCK_SIZE = 4096
_INDEX_TAIL = struct.Struct(">QQQ")  # last sequence, block offset, block size


class _IndexEntry(NamedTuple):
    last_user_key: bytes
    last_sequence: int
    offset: int
    size: int


def _encode_index(entries: list[_IndexEntry]) -> bytes:
    parts = [encode_varint(len(entries))]
    for key, sequence, offset, size in entries:
        parts += (encode_varint(len(key)), key, _INDEX_TAIL.pack(sequence, offset, size))
    return b"".join(parts)


def _decode_index(data: bytes) -> list[_IndexEntry]:
    entries: list[_IndexEntry] = []
    count, pos = decode_varint(data, 0)
    for _ in range(count):
        key_len, pos = decode_varint(data, pos)
        tail_at = pos + key_len
        if tail_at + _INDEX_TAIL.size > len(data):
            raise CorruptionError("index entry truncated")
        key = bytes(data[pos:tail_at])
        entries.append(_IndexEntry(key, *_INDEX_TAIL.unpack_from(data, tail_at)))
        pos = tail_at + _INDEX_TAIL.size
    if pos != len(data):
        raise CorruptionError("index block has trailing garbage")
    return entries


class SSTableWriter:
    """Builds one immutable sorted table from records in sort order."""

    def __init__(self, path: str, bits_per_key: int = 10) -> None:
        self._path = path
        self._file = open(path, "wb")
        self._block = BlockBuilder()
        self._index: list[_IndexEntry] = []
        self._keys: list[bytes] = []
        #: bytes written to the file so far (finished blocks only), which
        #: is what compaction cuts its output tables by
        self.file_bytes = 0
        self._last_record: Optional[InternalRecord] = None
        self._first_record: Optional[InternalRecord] = None
        self._bits_per_key = bits_per_key

    @property
    def entry_count(self) -> int:
        return len(self._keys)

    def add(self, record: InternalRecord) -> None:
        """Append one record; must be called in internal sort order."""
        user_key = record[0]
        last = self._last_record
        if last is None:
            self._first_record = record
        elif user_key <= last[0] and (user_key != last[0] or record[1] >= last[1]):
            raise CorruptionError(
                f"records added out of order: {user_key!r} after {last[0]!r}"
            )
        self._last_record = record
        self._keys.append(user_key)
        if self._block.add(record) >= TARGET_BLOCK_SIZE:
            self._flush_block()

    def _flush_block(self) -> None:
        if not len(self._block):
            return
        data = self._block.finish()
        last = self._last_record
        assert last is not None
        self._index.append(_IndexEntry(last[0], last[1], self.file_bytes, len(data)))
        self._file.write(data)
        self.file_bytes += len(data)
        self._block.reset()

    def abandon(self) -> None:
        """Discard the partially written table and remove its file."""
        self._file.close()
        os.remove(self._path)

    def finish(self) -> "TableMeta":
        """Flush remaining data, write filter/index/footer, close the file."""
        if self._first_record is None:
            self.abandon()
            raise CorruptionError("refusing to write an empty SSTable")
        self._flush_block()

        filter_data = BloomFilter.build(self._keys, self._bits_per_key).encode()
        filter_offset = self.file_bytes
        self._file.write(filter_data)
        self.file_bytes += len(filter_data)

        index_data = _encode_index(self._index)
        index_offset = self.file_bytes
        self._file.write(index_data)
        self.file_bytes += len(index_data)

        self._file.write(
            _FOOTER.pack(filter_offset, len(filter_data), index_offset, len(index_data), MAGIC)
        )
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()

        assert self._last_record is not None
        return TableMeta(
            path=self._path,
            smallest=self._first_record[0],
            largest=self._last_record[0],
            size_bytes=self.file_bytes + _FOOTER.size,
            entry_count=len(self._keys),
        )


@dataclass(frozen=True)
class TableMeta:
    """Summary of a finished table, recorded in the version manifest."""

    path: str
    smallest: bytes
    largest: bytes
    size_bytes: int
    entry_count: int


class SSTableReader:
    """Random and sequential access to one table file."""

    def __init__(self, path: str, table_id: int, cache: Optional[LRUCache] = None) -> None:
        self._path = path
        self._table_id = table_id
        self._cache = cache
        self._file = open(path, "rb")
        self._load_footer()

    def _load_footer(self) -> None:
        self._file.seek(0, os.SEEK_END)
        file_size = self._file.tell()
        if file_size < _FOOTER.size:
            raise CorruptionError(f"{self._path}: file shorter than footer")
        self._file.seek(file_size - _FOOTER.size)
        filter_off, filter_size, index_off, index_size, magic = _FOOTER.unpack(
            self._file.read(_FOOTER.size)
        )
        if magic != MAGIC:
            raise CorruptionError(f"{self._path}: bad magic number")
        # The writer lays the sections end to end; anything else would
        # send the reads below (and every block read) outside the file.
        if (
            filter_off + filter_size != index_off
            or index_off + index_size + _FOOTER.size != file_size
        ):
            raise CorruptionError(f"{self._path}: footer disagrees with the file layout")
        self._file.seek(filter_off)
        self._filter = BloomFilter.decode(self._file.read(filter_size))
        self._index = _decode_index(self._file.read(index_size))
        block_offset = 0
        for entry in self._index:
            if entry.offset != block_offset:
                raise CorruptionError(f"{self._path}: index blocks are not contiguous")
            block_offset += entry.size
        if block_offset != filter_off:
            raise CorruptionError(f"{self._path}: index does not cover the data blocks")
        self._index_keys = [record_sort_key(e.last_user_key, e.last_sequence) for e in self._index]

    def close(self) -> None:
        self._file.close()

    def discard_cached_blocks(self) -> None:
        """Drop this table's blocks from the cache (its file is going away)."""
        if self._cache is not None:
            for entry in self._index:
                self._cache.discard((self._table_id, entry.offset))

    # -- block access ----------------------------------------------------

    def _read_block(self, entry: _IndexEntry, fill_cache: bool = True) -> Block:
        cache_key = (self._table_id, entry.offset)
        if self._cache is not None:
            cached = self._cache.get(cache_key)
            if cached is not None:
                return cached
        self._file.seek(entry.offset)
        block = Block.decode(self._file.read(entry.size))
        if fill_cache and self._cache is not None:
            self._cache.put(cache_key, block, charge=entry.size)
        return block

    # -- reads ------------------------------------------------------------

    def may_contain(self, user_key: bytes) -> bool:
        """Bloom-filter membership check (no I/O beyond the loaded filter)."""
        return self._filter.may_contain(user_key)

    def get(
        self, user_key: bytes, sequence: int, key_hash: Optional[int] = None
    ) -> Optional[InternalRecord]:
        """Newest record for ``user_key`` visible at ``sequence``, if any.

        ``key_hash`` is ``hash_key(user_key)`` when the caller already has
        it (a read that descends several tables hashes the key once).
        """
        if key_hash is None:
            key_hash = hash_key(user_key)
        if not self._filter.may_contain_hash(key_hash):
            return None
        probe = record_sort_key(user_key, sequence)
        block_index = bisect.bisect_left(self._index_keys, probe)
        if block_index >= len(self._index):
            return None
        record = self._read_block(self._index[block_index]).get(user_key, sequence)
        if record is not None:
            return record
        # The visible version may start in the next block when the probe key
        # equals a block's last key exactly.
        if block_index + 1 < len(self._index):
            return self._read_block(self._index[block_index + 1]).get(user_key, sequence)
        return None

    def __iter__(self) -> Iterator[InternalRecord]:
        """Every record in sort order, one block in memory at a time.

        This is the scan compaction and verification make: it uses blocks
        that are already cached but leaves the ones it reads out of the
        cache (LevelDB's ``fill_cache=false``), so a merge of whole tables
        does not evict the blocks point reads are using.
        """
        return chain.from_iterable(
            self._read_block(entry, fill_cache=False) for entry in self._index
        )

    def iterate_from(self, user_key: bytes, sequence: int) -> Iterator[InternalRecord]:
        """Records at/after ``(user_key, sequence)`` in sort order."""
        probe = record_sort_key(user_key, sequence)
        block_index = bisect.bisect_left(self._index_keys, probe)
        if block_index >= len(self._index):
            return
        block = self._read_block(self._index[block_index])
        yield from block.records_from(block.seek(user_key, sequence))
        for entry in self._index[block_index + 1 :]:
            yield from self._read_block(entry)
