"""Version management: which files are live, and recovery metadata.

The DB's durable state is described by a *version*: for each level, the set
of SSTable files (with their key ranges), plus the current WAL number and
the last used sequence number.  Changes are appended to a MANIFEST file as
JSON version edits; a CURRENT file names the live manifest.  Opening the DB
replays the manifest, then replays any WAL newer than the recorded log
number.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import CorruptionError
from repro.kvstore.record import KeyRange

NUM_LEVELS = 7


@dataclass(frozen=True)
class FileMetadata:
    """One live SSTable file."""

    number: int
    smallest: bytes
    largest: bytes
    size_bytes: int
    entry_count: int

    @property
    def key_range(self) -> KeyRange:
        return KeyRange(self.smallest, self.largest)

    def to_json(self) -> dict:
        return {
            "number": self.number,
            "smallest": self.smallest.hex(),
            "largest": self.largest.hex(),
            "size_bytes": self.size_bytes,
            "entry_count": self.entry_count,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FileMetadata":
        return cls(
            number=data["number"],
            smallest=bytes.fromhex(data["smallest"]),
            largest=bytes.fromhex(data["largest"]),
            size_bytes=data["size_bytes"],
            entry_count=data["entry_count"],
        )


@dataclass
class VersionEdit:
    """A delta applied to the version state (one manifest line)."""

    added: list[tuple[int, FileMetadata]] = field(default_factory=list)  # (level, file)
    deleted: list[tuple[int, int]] = field(default_factory=list)  # (level, file number)
    log_number: Optional[int] = None
    last_sequence: Optional[int] = None
    next_file_number: Optional[int] = None

    def to_json(self) -> dict:
        doc: dict = {}
        if self.added:
            doc["added"] = [[level, meta.to_json()] for level, meta in self.added]
        if self.deleted:
            doc["deleted"] = [[level, number] for level, number in self.deleted]
        if self.log_number is not None:
            doc["log_number"] = self.log_number
        if self.last_sequence is not None:
            doc["last_sequence"] = self.last_sequence
        if self.next_file_number is not None:
            doc["next_file_number"] = self.next_file_number
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "VersionEdit":
        edit = cls()
        for level, meta in doc.get("added", []):
            edit.added.append((level, FileMetadata.from_json(meta)))
        for level, number in doc.get("deleted", []):
            edit.deleted.append((level, number))
        edit.log_number = doc.get("log_number")
        edit.last_sequence = doc.get("last_sequence")
        edit.next_file_number = doc.get("next_file_number")
        return edit


def log_file_name(number: int) -> str:
    return f"{number:06d}.log"


def table_file_name(number: int) -> str:
    return f"{number:06d}.sst"


def manifest_file_name(number: int) -> str:
    return f"MANIFEST-{number:06d}"


class VersionSet:
    """Mutable live-file bookkeeping plus the manifest append log."""

    def __init__(self, directory: str) -> None:
        self._dir = directory
        self.levels: list[list[FileMetadata]] = [[] for _ in range(NUM_LEVELS)]
        #: ``smallest`` of every file of a level, in level order; levels
        #: >= 1 are sorted and disjoint, so one ``bisect`` finds a key's file
        self._smallest: list[list[bytes]] = [[] for _ in range(NUM_LEVELS)]
        #: per level >= 1, the largest key of the table compacted last:
        #: the next compaction takes the table after it, so successive
        #: compactions sweep the key space instead of rewriting its low
        #: end again and again.  In memory only: a reopened DB starts its
        #: sweep over, which costs nothing and leaves the manifest as it is.
        self.compaction_cursor: list[Optional[bytes]] = [None] * NUM_LEVELS
        self.log_number = 0
        self.last_sequence = 0
        self.next_file_number = 1
        self._manifest_file = None
        self._manifest_number = 0

    # -- file numbers -------------------------------------------------------

    def new_file_number(self) -> int:
        number = self.next_file_number
        self.next_file_number += 1
        return number

    # -- state transitions ----------------------------------------------

    def apply(self, edit: VersionEdit) -> None:
        """Apply an edit to the in-memory state (no manifest write)."""
        # One filter and one sort per touched level, however many tables
        # the edit names.  Deletions go first: a moved table is deleted
        # from one level and added to the next by the same edit.
        deleted: dict[int, set[int]] = {}
        for level, number in edit.deleted:
            deleted.setdefault(level, set()).add(number)
        added: dict[int, list[FileMetadata]] = {}
        for level, meta in edit.added:
            added.setdefault(level, []).append(meta)
        for level in deleted.keys() | added.keys():
            gone = deleted.get(level, ())
            files = [f for f in self.levels[level] if f.number not in gone]
            files += added.get(level, ())
            # L0 keeps newest-file-last (reads walk it in reverse); the
            # disjoint levels below stay ordered by smallest key.
            files.sort(key=_by_smallest if level else _by_number)
            self.levels[level] = files
            self._smallest[level] = [f.smallest for f in files]
        if edit.log_number is not None:
            self.log_number = edit.log_number
        if edit.last_sequence is not None:
            self.last_sequence = max(self.last_sequence, edit.last_sequence)
        if edit.next_file_number is not None:
            self.next_file_number = max(self.next_file_number, edit.next_file_number)

    def log_and_apply(self, edit: VersionEdit) -> None:
        """Durably append an edit to the manifest, then apply it."""
        edit.next_file_number = self.next_file_number
        if edit.last_sequence is None:
            edit.last_sequence = self.last_sequence
        if self._manifest_file is None:
            raise CorruptionError("manifest is not open")
        line = json.dumps(edit.to_json(), separators=(",", ":")) + "\n"
        self._manifest_file.write(line.encode())
        self._manifest_file.flush()
        os.fsync(self._manifest_file.fileno())
        self.apply(edit)

    # -- persistence -------------------------------------------------------

    def create_new(self) -> None:
        """Initialise a brand-new database directory."""
        self._manifest_number = self.new_file_number()
        path = os.path.join(self._dir, manifest_file_name(self._manifest_number))
        self._manifest_file = open(path, "ab")
        self.log_and_apply(VersionEdit())
        self._set_current(self._manifest_number)

    def recover(self) -> None:
        """Rebuild state from CURRENT + the manifest it names."""
        current_path = os.path.join(self._dir, "CURRENT")
        try:
            with open(current_path, "r", encoding="utf-8") as file:
                manifest_name = file.read().strip()
        except FileNotFoundError:
            raise CorruptionError(f"{self._dir}: missing CURRENT file") from None
        manifest_path = os.path.join(self._dir, manifest_name)
        try:
            with open(manifest_path, "rb") as file:
                for line_number, raw in enumerate(file, 1):
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        edit = VersionEdit.from_json(json.loads(raw))
                    except (json.JSONDecodeError, KeyError) as error:
                        raise CorruptionError(
                            f"{manifest_name}:{line_number}: bad version edit: {error}"
                        ) from None
                    self.apply(edit)
        except FileNotFoundError:
            raise CorruptionError(f"{self._dir}: CURRENT names missing {manifest_name}") from None
        self._manifest_number = int(manifest_name.split("-")[1])
        self.next_file_number = max(self.next_file_number, self._manifest_number + 1)
        self._manifest_file = open(manifest_path, "ab")

    def _set_current(self, manifest_number: int) -> None:
        # Write-then-rename so CURRENT is always intact.
        tmp_path = os.path.join(self._dir, "CURRENT.tmp")
        with open(tmp_path, "w", encoding="utf-8") as file:
            file.write(manifest_file_name(manifest_number) + "\n")
            file.flush()
            os.fsync(file.fileno())
        os.replace(tmp_path, os.path.join(self._dir, "CURRENT"))

    def close(self) -> None:
        if self._manifest_file is not None:
            self._manifest_file.close()
            self._manifest_file = None

    # -- queries ---------------------------------------------------------

    def live_file_numbers(self) -> set[int]:
        return {meta.number for level in self.levels for meta in level}

    def level_size_bytes(self, level: int) -> int:
        return sum(meta.size_bytes for meta in self.levels[level])

    def files_overlapping(
        self, level: int, start: Optional[bytes], end_inclusive: Optional[bytes]
    ) -> list[FileMetadata]:
        """Files in ``level`` overlapping the inclusive key range."""
        files = self.levels[level]
        if level == 0:
            return [
                meta
                for meta in files
                if (end_inclusive is None or meta.smallest <= end_inclusive)
                and (start is None or meta.largest >= start)
            ]
        smallest = self._smallest[level]
        first = 0
        if start is not None:
            # The last file starting at or below ``start`` is the only
            # one below it that can still reach it.
            first = max(bisect_right(smallest, start) - 1, 0)
            if first < len(files) and files[first].largest < start:
                first += 1
        last = len(files) if end_inclusive is None else bisect_right(smallest, end_inclusive)
        return files[first:last]

    def file_containing(self, level: int, user_key: bytes) -> Optional[FileMetadata]:
        """The one file of ``level`` (>= 1) whose range holds ``user_key``."""
        index = bisect_right(self._smallest[level], user_key) - 1
        if index >= 0:
            meta = self.levels[level][index]
            if user_key <= meta.largest:
                return meta
        return None


def _by_number(meta: FileMetadata) -> int:
    return meta.number


def _by_smallest(meta: FileMetadata) -> bytes:
    return meta.smallest
