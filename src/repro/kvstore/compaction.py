"""Leveled compaction: picking and executing merges down the tree.

Policy (LevelDB-flavoured):

- L0 compacts into L1 once it accumulates ``l0_trigger`` files (L0 files
  overlap each other, so all overlapping L0 files join one compaction);
- level *i* (>=1) compacts into level *i+1* once its total size exceeds
  ``base_bytes * multiplier**(i-1)``, one table at a time: the table after
  the level's cursor (``VersionSet.compaction_cursor``), so that successive
  compactions sweep the key space;
- outputs are cut at ``MAX_TABLE_BYTES`` between user keys, so a merge
  rewrites the tables its inputs overlap and no others, and a single input
  table with nothing under it in the next level is *moved* there by a
  manifest edit, not rewritten;
- the merge keeps only the newest version of each user key (every read
  is at the head), and drops that too when it is a deletion tombstone and
  the compaction writes to the bottom-most level that could contain the
  key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.kvstore.record import InternalRecord, ValueType
from repro.kvstore.version import FileMetadata, NUM_LEVELS, VersionSet

#: a compaction starts a new output table at the first user key after this
#: many bytes of data blocks (LevelDB's ``max_file_size``)
MAX_TABLE_BYTES = 2 * 1024 * 1024


@dataclass
class Compaction:
    """A planned merge of input files into ``level + 1``."""

    level: int
    inputs_upper: list[FileMetadata]  # files from `level`
    inputs_lower: list[FileMetadata]  # overlapping files from `level + 1`

    @property
    def output_level(self) -> int:
        return self.level + 1

    def all_inputs(self) -> list[FileMetadata]:
        return self.inputs_upper + self.inputs_lower

    @property
    def is_move(self) -> bool:
        """One table with nothing under it: relink it, rewrite nothing."""
        return len(self.inputs_upper) == 1 and not self.inputs_lower


def pick_compaction(
    versions: VersionSet,
    l0_trigger: int = 4,
    base_bytes: int = 8 * 1024 * 1024,
    multiplier: int = 10,
) -> Compaction | None:
    """Choose the most urgent compaction, or ``None`` if the tree is healthy."""
    # L0 pressure first: too many overlapping files hurt every read.
    if len(versions.levels[0]) >= l0_trigger:
        upper = list(versions.levels[0])
        smallest = min(f.smallest for f in upper)
        largest = max(f.largest for f in upper)
        lower = versions.files_overlapping(1, smallest, largest)
        return Compaction(0, upper, lower)

    for level in range(1, NUM_LEVELS - 1):
        limit = base_bytes * multiplier ** (level - 1)
        if versions.level_size_bytes(level) > limit:
            # Round-robin by key space.  Always taking the first table
            # would keep level + 1 to the low end of the key space and
            # merge every new table into all of it.
            files = versions.levels[level]
            cursor = versions.compaction_cursor[level]
            table = files[0]
            if cursor is not None:
                table = next((f for f in files if f.largest > cursor), table)
            versions.compaction_cursor[level] = table.largest
            lower = versions.files_overlapping(level + 1, table.smallest, table.largest)
            return Compaction(level, [table], lower)
    return None


def is_bottom_most_for_range(
    versions: VersionSet, output_level: int, smallest: bytes, largest: bytes
) -> bool:
    """Whether no level below ``output_level`` can hold keys in the range.

    When true, deletion tombstones covering only dropped versions can be
    discarded entirely.
    """
    for level in range(output_level + 1, NUM_LEVELS):
        if versions.files_overlapping(level, smallest, largest):
            return False
    return True


def prune_versions(
    records: Iterable[InternalRecord], drop_tombstones: bool
) -> Iterator[InternalRecord]:
    """Keep the newest version of each user key.

    ``records`` must arrive in internal sort order (newest version of each
    user key first).  With ``drop_tombstones`` set, a newest version that
    is a deletion is dropped too: nothing deeper can resurrect the key,
    and every older version in this merge is dropped anyway.
    """
    current_key: bytes | None = None
    deletion = ValueType.DELETION
    for record in records:
        user_key, _sequence, kind, _value = record
        if user_key == current_key:
            continue  # shadowed by the newer version just seen
        current_key = user_key
        if drop_tombstones and kind == deletion:
            continue
        yield record
