"""The embedded database facade.

``DB`` wires the LSM pieces together: WAL + memtable for writes, leveled
SSTables for persistence, synchronous flush/compaction (deterministic — no
background threads), point reads at the head and point-in-time range scans.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import CorruptionError, DBClosedError
from repro.kvstore.batch import WriteBatch
from repro.kvstore.bloom import hash_key
from repro.kvstore.cache import LRUCache
from repro.kvstore.compaction import (
    MAX_TABLE_BYTES,
    Compaction,
    is_bottom_most_for_range,
    pick_compaction,
    prune_versions,
)
from repro.kvstore.iterator import merge_records, visible_items
from repro.kvstore.memtable import MemTable
from repro.kvstore.record import MAX_SEQUENCE
from repro.kvstore.sstable import SSTableReader, SSTableWriter, TableMeta
from repro.obs.registry import MetricsRegistry, StatsView
from repro.kvstore.version import (
    FileMetadata,
    VersionEdit,
    VersionSet,
    log_file_name,
    table_file_name,
)
from repro.kvstore.wal import WALWriter, read_wal


#: budget of the row cache: keys and values of point reads at the head
#: sequence, ``ROW_CHARGE`` bytes of bookkeeping apiece
ROW_CACHE_BYTES = 1024 * 1024
ROW_CHARGE = 64
#: what the row cache holds for a key that is not in the database
_ABSENT = object()


@dataclass
class DBOptions:
    """Tunables; defaults suit tests and simulation-scale datasets."""

    memtable_size_bytes: int = 4 * 1024 * 1024
    l0_compaction_trigger: int = 4
    level_base_bytes: int = 8 * 1024 * 1024
    level_multiplier: int = 10
    bloom_bits_per_key: int = 10
    sync_wal: bool = False


class DBStats(StatsView):
    """Operational counters, reset at open."""

    PREFIX = "kvstore"
    COUNTERS = {
        "puts": 0,
        "deletes": 0,
        "gets": 0,
        "flushes": 0,
        "compactions": 0,
        "bytes_flushed": 0,
        "bytes_compacted": 0,
    }


class DB:
    """An embedded ordered key-value store (see package docstring)."""

    def __init__(
        self,
        directory: str,
        options: Optional[DBOptions] = None,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[dict] = None,
    ) -> None:
        """Use :meth:`DB.open` instead of constructing directly."""
        self._dir = directory
        self.options = options or DBOptions()
        self._versions = VersionSet(directory)
        self._mem = MemTable()
        self._wal: Optional[WALWriter] = None
        # Point reads at the head sequence, found or not.  It sits in front
        # of the whole descent (memtable, L0 filters, one table per level)
        # and every write drops the keys it touches, so an entry is always
        # what the descent would return.  Flush and compaction move
        # records, never the newest version of a key, and need not touch it.
        self._row_cache = LRUCache(ROW_CACHE_BYTES)
        self._tables: dict[int, SSTableReader] = {}
        self._closed = False
        self.stats = DBStats(registry, labels)
        self._c_gets = self.stats.handle("gets")
        self._c_puts = self.stats.handle("puts")
        self._c_deletes = self.stats.handle("deletes")
        #: optional span tracer: flush/compaction become child spans of
        #: whatever invocation is active when they happen
        self.tracer = None
        if registry is not None:
            registry.gauge(
                "kvstore_memtable_bytes", labels, fn=lambda: self._mem.approximate_size
            )
            registry.gauge(
                "kvstore_live_tables",
                labels,
                fn=lambda: sum(len(level) for level in self._versions.levels),
            )

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(
        cls,
        directory: str,
        options: Optional[DBOptions] = None,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[dict] = None,
    ) -> "DB":
        """Open (creating or recovering) a database at ``directory``."""
        os.makedirs(directory, exist_ok=True)
        db = cls(directory, options, registry, labels)
        if os.path.exists(os.path.join(directory, "CURRENT")):
            db._recover()
        else:
            db._versions.create_new()
            db._new_wal()
        return db

    def _recover(self) -> None:
        self._versions.recover()
        # Replay WALs at/after the recorded log number, oldest first.
        logs = sorted(
            number
            for number in _numbered_files(self._dir, ".log")
            if number >= self._versions.log_number
        )
        sequence = self._versions.last_sequence
        for number in logs:
            for payload in read_wal(os.path.join(self._dir, log_file_name(number))):
                start_sequence = int.from_bytes(payload[:8], "big")
                batch = WriteBatch.decode(payload[8:])
                sequence, _puts = self._apply_to_memtable(batch, start_sequence)
            self._versions.next_file_number = max(self._versions.next_file_number, number + 1)
        self._versions.last_sequence = max(self._versions.last_sequence, sequence)
        self._new_wal()
        if len(self._mem):
            self._flush_memtable()
        self._remove_obsolete_files()

    def _new_wal(self) -> None:
        number = self._versions.new_file_number()
        old = self._wal
        self._wal = WALWriter(
            os.path.join(self._dir, log_file_name(number)), sync=self.options.sync_wal
        )
        self._wal_number = number
        if old is not None:
            old.close()

    def close(self) -> None:
        """Flush nothing (WAL is the source of truth), close all files."""
        if self._closed:
            return
        self._closed = True
        if self._wal is not None:
            self._wal.close()
        for reader in self._tables.values():
            reader.close()
        self._tables.clear()
        self._versions.close()

    def __enter__(self) -> "DB":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise DBClosedError("database is closed")

    # -- writes ------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite one key."""
        batch = WriteBatch()
        batch.put(key, value)
        self.write(batch)

    def delete(self, key: bytes) -> None:
        """Remove one key (writing a tombstone)."""
        batch = WriteBatch()
        batch.delete(key)
        self.write(batch)

    def write(self, batch: WriteBatch) -> None:
        """Apply a batch atomically and durably (WAL first)."""
        self._check_open()
        if not batch:
            return
        start_sequence = self._versions.last_sequence + 1
        assert self._wal is not None
        self._wal.append(start_sequence.to_bytes(8, "big") + batch.encode())
        self._versions.last_sequence, puts = self._apply_to_memtable(batch, start_sequence)
        if puts:
            self._c_puts.inc(puts)
        if puts != len(batch):
            self._c_deletes.inc(len(batch) - puts)
        if self._mem.approximate_size >= self.options.memtable_size_bytes:
            self._flush_memtable()
            self._maybe_compact()

    def _apply_to_memtable(self, batch: WriteBatch, start_sequence: int) -> tuple[int, int]:
        """Insert ``batch``; returns (last sequence used, number of puts)."""
        add = self._mem.add
        invalidate = self._row_cache.discard
        sequence = start_sequence
        puts = 0
        for kind, key, value in batch.items():
            add(sequence, kind, key, value)
            invalidate(key)
            sequence += 1
            puts += kind  # ValueType.VALUE is 1, DELETION 0
        return sequence - 1, puts

    # -- reads ------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for ``key`` or ``None`` if absent."""
        self._check_open()
        self._c_gets.inc()
        key = bytes(key)
        rows = self._row_cache
        value = rows.get(key)
        if value is None:
            value = self._lookup(key)
            if value is None:
                rows.put(key, _ABSENT, len(key) + ROW_CHARGE)
            else:
                rows.put(key, value, len(key) + len(value) + ROW_CHARGE)
            return value
        return None if value is _ABSENT else value

    def _lookup(self, key: bytes) -> Optional[bytes]:
        """Descend the tree for the newest version of ``key``."""
        record = self._mem.get(key, MAX_SEQUENCE)
        if record is not None:
            return None if record.is_deletion else record.value

        key_hash = hash_key(key)
        versions = self._versions
        # L0: newest file first; files overlap, so order matters.
        for meta in reversed(versions.levels[0]):
            if meta.smallest <= key <= meta.largest:
                record = self._table(meta).get(key, MAX_SEQUENCE, key_hash)
                if record is not None:
                    return None if record.is_deletion else record.value

        # Deeper levels: at most one file per level can contain the key.
        for level in range(1, len(versions.levels)):
            meta = versions.file_containing(level, key)
            if meta is not None:
                record = self._table(meta).get(key, MAX_SEQUENCE, key_hash)
                if record is not None:
                    return None if record.is_deletion else record.value
        return None

    def iterate(
        self, start: Optional[bytes] = None, end: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Scan live ``(key, value)`` pairs in ``[start, end)`` in key order.

        The scan reads the database as of its first ``next``: records
        written after it are newer than its start sequence and are skipped,
        so a write between two ``next`` calls changes nothing it yields.

        Known defect: a scan must not be held across writes that flush and
        compact.  A compaction closes the readers of the tables it retires
        (``_remove_tables``) while the scan may still read them, and the
        scan's next ``next`` raises ``ValueError`` (seek of closed file).
        Every caller finishes its scan before it writes.
        """
        self._check_open()
        sequence = self._versions.last_sequence
        sources: list = []
        seek_key = start or b""
        sources.append(self._mem.iterate_from(seek_key, MAX_SEQUENCE))
        for meta in reversed(self._versions.levels[0]):
            if meta.key_range.overlaps(start, end):
                sources.append(self._table(meta).iterate_from(seek_key, MAX_SEQUENCE))
        for level in range(1, len(self._versions.levels)):
            for meta in self._versions.levels[level]:
                if meta.key_range.overlaps(start, end):
                    sources.append(self._table(meta).iterate_from(seek_key, MAX_SEQUENCE))
        yield from visible_items(merge_records(sources), sequence, start, end)

    # -- table access ----------------------------------------------------

    def _table(self, meta: FileMetadata) -> SSTableReader:
        reader = self._tables.get(meta.number)
        if reader is None:
            path = os.path.join(self._dir, table_file_name(meta.number))
            reader = SSTableReader(path)
            self._tables[meta.number] = reader
        return reader

    # -- flush & compaction ------------------------------------------------

    def flush(self) -> None:
        """Force the memtable into an L0 table (no-op when empty)."""
        self._check_open()
        if len(self._mem):
            self._flush_memtable()
            self._maybe_compact()

    def _flush_memtable(self) -> None:
        if self.tracer is not None:
            with self.tracer.span("kvstore.flush", bytes=self._mem.approximate_size):
                self._flush_memtable_inner()
        else:
            self._flush_memtable_inner()

    def _write_tables(self, records, cut_bytes: float = math.inf) -> list[FileMetadata]:
        """Write ``records`` (in sort order) to new table files.

        A new table starts at the first record after ``cut_bytes`` of data
        blocks.  Only a merge cuts, and a merge holds one version per user
        key, so the tables of a level stay disjoint.  Returns the tables'
        metadata (none, and no file, when there were no records).  A
        failure removes every file written before it propagates.
        """
        tables: list[FileMetadata] = []
        writer: Optional[SSTableWriter] = None
        number = 0
        try:
            for record in records:
                if writer is None or writer.file_bytes >= cut_bytes:
                    if writer is not None:
                        tables.append(_file_metadata(number, writer.finish()))
                        writer = None
                    number = self._versions.new_file_number()
                    writer = SSTableWriter(
                        os.path.join(self._dir, table_file_name(number)),
                        bits_per_key=self.options.bloom_bits_per_key,
                    )
                    add = writer.add
                add(record)
            if writer is not None:
                tables.append(_file_metadata(number, writer.finish()))
        except BaseException:
            if writer is not None:
                writer.abandon()
            for meta in tables:
                os.remove(os.path.join(self._dir, table_file_name(meta.number)))
            raise
        return tables

    def _flush_memtable_inner(self) -> None:
        (meta,) = self._write_tables(self._mem)  # callers flush only a non-empty memtable
        self._mem = MemTable()
        old_wal_number = self._wal_number
        self._new_wal()
        edit = VersionEdit(added=[(0, meta)], log_number=self._wal_number)
        self._versions.log_and_apply(edit)
        self.stats.handle("flushes").inc()
        self.stats.handle("bytes_flushed").inc(meta.size_bytes)
        try:
            os.remove(os.path.join(self._dir, log_file_name(old_wal_number)))
        except FileNotFoundError:
            pass

    def _maybe_compact(self) -> None:
        while True:
            compaction = pick_compaction(
                self._versions,
                l0_trigger=self.options.l0_compaction_trigger,
                base_bytes=self.options.level_base_bytes,
                multiplier=self.options.level_multiplier,
            )
            if compaction is None:
                return
            self._run_compaction(compaction)

    def compact_range(self, level: int) -> None:
        """Manually compact all of ``level`` into ``level + 1`` (testing aid)."""
        self._check_open()
        upper = list(self._versions.levels[level])
        if not upper:
            return
        smallest = min(f.smallest for f in upper)
        largest = max(f.largest for f in upper)
        lower = self._versions.files_overlapping(level + 1, smallest, largest)
        self._run_compaction(Compaction(level, upper, lower))

    def _run_compaction(self, compaction: Compaction) -> None:
        if self.tracer is not None:
            with self.tracer.span(
                "kvstore.compaction",
                level=compaction.level,
                inputs=len(compaction.all_inputs()),
            ):
                self._run_compaction_inner(compaction)
        else:
            self._run_compaction_inner(compaction)

    def _run_compaction_inner(self, compaction: Compaction) -> None:
        if compaction.is_move:
            # The table keeps its number, its file and its open reader; the
            # edit only says which level it now belongs to.
            outputs = compaction.inputs_upper
            retired = []
        else:
            outputs = self._merge_tables(compaction)
            self.stats.handle("bytes_compacted").inc(
                sum(meta.size_bytes for meta in outputs)
            )
            retired = [meta.number for meta in compaction.all_inputs()]
        edit = VersionEdit(added=[(compaction.output_level, meta) for meta in outputs])
        edit.deleted = [(compaction.level, f.number) for f in compaction.inputs_upper]
        edit.deleted += [(compaction.output_level, f.number) for f in compaction.inputs_lower]
        self._versions.log_and_apply(edit)
        self.stats.handle("compactions").inc()
        self._remove_tables(retired)

    def _merge_tables(self, compaction: Compaction) -> list[FileMetadata]:
        """Merge the inputs into new tables (none when everything was pruned)."""
        inputs = compaction.all_inputs()
        smallest = min(f.smallest for f in inputs)
        largest = max(f.largest for f in inputs)
        drop_tombstones = is_bottom_most_for_range(
            self._versions, compaction.output_level, smallest, largest
        )
        # Newest-first source ordering: L0 inputs by file number descending,
        # then the lower level (always older than any upper input).
        upper_sorted = sorted(compaction.inputs_upper, key=lambda f: -f.number)
        sources = [iter(self._table(meta)) for meta in upper_sorted]
        sources += [iter(self._table(meta)) for meta in compaction.inputs_lower]

        merged = merge_records(sources)
        pruned = prune_versions(merged, drop_tombstones)
        return self._write_tables(pruned, MAX_TABLE_BYTES)

    def _remove_tables(self, numbers) -> None:
        """Close and delete table files no version names any more."""
        for number in numbers:
            reader = self._tables.pop(number, None)
            if reader is not None:
                reader.close()
            os.remove(os.path.join(self._dir, table_file_name(number)))

    def _remove_obsolete_files(self) -> None:
        """Recovery's sweep: tables a crash left behind that no version names."""
        live = self._versions.live_file_numbers()
        self._remove_tables(
            number for number in _numbered_files(self._dir, ".sst") if number not in live
        )

    # -- integrity ---------------------------------------------------------

    def verify_integrity(self) -> dict[str, int]:
        """Fully scan every live table, checking structure and CRCs.

        Returns counters (tables/records checked).  Raises
        :class:`CorruptionError` on the first damaged block, bad ordering,
        or a table whose contents disagree with its manifest metadata.
        """
        self._check_open()
        checked_tables = 0
        checked_records = 0
        for level, files in enumerate(self._versions.levels):
            previous_largest: Optional[bytes] = None
            for meta in files:
                reader = self._table(meta)
                count = 0
                last_key = None
                for record in reader:
                    sort_key = record.sort_key()
                    if last_key is not None and sort_key <= last_key:
                        raise CorruptionError(
                            f"table {meta.number:06d} has out-of-order records"
                        )
                    last_key = sort_key
                    if not meta.smallest <= record.user_key <= meta.largest:
                        raise CorruptionError(
                            f"table {meta.number:06d} record outside manifest range"
                        )
                    count += 1
                if count != meta.entry_count:
                    raise CorruptionError(
                        f"table {meta.number:06d} has {count} records, manifest "
                        f"says {meta.entry_count}"
                    )
                if level > 0:
                    if previous_largest is not None and meta.smallest <= previous_largest:
                        raise CorruptionError(
                            f"level {level} tables overlap at {meta.number:06d}"
                        )
                    previous_largest = meta.largest
                checked_tables += 1
                checked_records += count
        return {"tables": checked_tables, "records": checked_records}

    # -- introspection -----------------------------------------------------

    def level_file_counts(self) -> list[int]:
        """Number of live SSTables per level."""
        return [len(level) for level in self._versions.levels]

    @property
    def last_sequence(self) -> int:
        return self._versions.last_sequence

    @property
    def row_cache_stats(self):
        return self._row_cache.stats


def _file_metadata(number: int, table: TableMeta) -> FileMetadata:
    return FileMetadata(
        number=number,
        smallest=table.smallest,
        largest=table.largest,
        size_bytes=table.size_bytes,
        entry_count=table.entry_count,
    )


def _numbered_files(directory: str, suffix: str) -> list[int]:
    numbers = []
    for name in os.listdir(directory):
        if name.endswith(suffix):
            stem = name[: -len(suffix)]
            if stem.isdigit():
                numbers.append(int(stem))
    return numbers
