"""A noise-free guard on how much compaction rewrites.

A fixed-seed load makes every flush and compaction a function of the
code alone, so the byte counts below are exact.  They move only when the
compaction policy does (picking, output cuts, moves); a change that makes
them move says so by editing them.  Before DESIGN.md §5o every L1 -> L2
step rewrote both levels whole, and this load compacted 50,253,114 bytes
in 12 steps.
"""

import random
from unittest import mock

from repro.kvstore import DB, DBOptions
from repro.kvstore import db as db_module

FLUSHES = 24
BYTES_FLUSHED = 12_525_429
BYTES_COMPACTED = 42_644_359
COMPACTIONS = 49


def test_uniform_load_compacts_exactly_this_much(tmp_path):
    # The defaults' proportions (memtable : L1 limit : table cut = 4 : 8 : 2 MiB)
    # at one eighth of the size.
    options = DBOptions(
        memtable_size_bytes=512 << 10, level_base_bytes=1 << 20, l0_compaction_trigger=4
    )
    rng = random.Random(22)
    steps = []  # (bytes retired, bytes added) of every edit that retires tables
    with mock.patch.object(db_module, "MAX_TABLE_BYTES", 256 << 10), DB.open(
        str(tmp_path / "db"), options
    ) as db:
        versions = db._versions
        log_and_apply = versions.log_and_apply

        def recording(edit):
            if edit.deleted:
                sizes = {f.number: f.size_bytes for level in versions.levels for f in level}
                steps.append(
                    (
                        sum(sizes[number] for _level, number in edit.deleted),
                        sum(meta.size_bytes for _level, meta in edit.added),
                    )
                )
            log_and_apply(edit)

        versions.log_and_apply = recording
        while db.stats.flushes < FLUSHES:
            db.put(b"key%06d" % rng.randrange(30_000), rng.randbytes(1000))
        assert (
            db.stats.flushes,
            db.stats.bytes_flushed,
            db.stats.bytes_compacted,
            db.stats.compactions,
        ) == (FLUSHES, BYTES_FLUSHED, BYTES_COMPACTED, COMPACTIONS)
        assert len(steps) == COMPACTIONS
        # Dropping shadowed versions only shrinks a merge, and a move adds
        # what it retires: no step may write more than it read.
        assert all(added <= retired for retired, added in steps)
        assert db.level_file_counts()[:4] == [0, 3, 37, 0]
        db.verify_integrity()
