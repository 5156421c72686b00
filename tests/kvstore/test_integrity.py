"""Tests for the full-scan integrity checker."""

import os
import struct
import zlib

import pytest

from repro.errors import CorruptionError
from repro.kvstore import DB, DBOptions
from repro.kvstore.block import Block, BlockBuilder
from repro.kvstore.record import InternalRecord, ValueType
from repro.kvstore.sstable import _FOOTER, SSTableReader, SSTableWriter, _decode_index


def small_options():
    return DBOptions(
        memtable_size_bytes=2048,
        level_base_bytes=8 * 1024,
        l0_compaction_trigger=2,
    )


def populated_db(tmp_path, count=400):
    db = DB.open(str(tmp_path / "db"), small_options())
    for i in range(count):
        db.put(b"key%05d" % i, b"value-%05d" % i)
    db.flush()
    return db


def test_healthy_db_verifies(tmp_path):
    with populated_db(tmp_path) as db:
        result = db.verify_integrity()
        assert result["tables"] >= 1
        assert result["records"] >= 400


def test_empty_db_verifies(tmp_path):
    with DB.open(str(tmp_path / "db")) as db:
        assert db.verify_integrity() == {"tables": 0, "records": 0}


def test_verify_after_compactions(tmp_path):
    with populated_db(tmp_path, count=1500) as db:
        db.compact_range(0)
        result = db.verify_integrity()
        assert result["records"] > 0


def test_bitflip_in_table_detected(tmp_path):
    db = populated_db(tmp_path)
    directory = str(tmp_path / "db")
    db_path = None
    for name in sorted(os.listdir(directory)):
        if name.endswith(".sst"):
            db_path = os.path.join(directory, name)
            break
    assert db_path is not None
    # Reopen cleanly so no cached blocks mask the damage.
    db.close()
    with open(db_path, "r+b") as file:
        file.seek(100)
        file.write(b"\xde\xad")
    with DB.open(directory, small_options()) as db:
        with pytest.raises(CorruptionError):
            db.verify_integrity()


def test_verify_on_closed_db_raises(tmp_path):
    db = populated_db(tmp_path)
    db.close()
    from repro.errors import DBClosedError

    with pytest.raises(DBClosedError):
        db.verify_integrity()


# -- damaged bytes raise CorruptionError and nothing else ----------------------
#
# "Nothing else" is the point: a decoder that indexes, unpacks or seeks
# with a damaged length would raise IndexError, struct.error, OverflowError
# or MemoryError, which callers of verify/recovery do not catch.

_FLIPS = (0x01, 0x80, 0xFF)


def mutation_records():
    """Short, two-byte-length and long-key entries, across a restart."""
    records = [
        InternalRecord(b"o/user:%04d/f/tl/%08d" % (i // 3, i), 100 - i, ValueType.VALUE, b"v" * size)
        for i, size in enumerate([0, 5, 127, 128, 300] + list(range(1, 15)))
    ]
    records.append(InternalRecord(b"p" * 200, 7, ValueType.DELETION, b""))
    records.append(InternalRecord(b"p" * 200 + b"q", 6, ValueType.VALUE, b"tail"))
    return records


def assert_only_corruption(must_raise, function, *args):
    try:
        function(*args)
    except CorruptionError:
        return
    assert not must_raise, "damage went unnoticed"


def decode_all(encoded):
    return list(Block.decode(encoded))


def test_every_truncation_and_byte_flip_of_a_block_is_corruption():
    builder = BlockBuilder()
    for record in mutation_records():
        builder.add(record)
    encoded = builder.finish()
    assert list(Block.decode(encoded)) == mutation_records()
    for cut in range(len(encoded)):
        assert_only_corruption(True, Block.decode, encoded[:cut])
    for position in range(len(encoded)):
        for flip in _FLIPS:
            damaged = bytearray(encoded)
            damaged[position] ^= flip
            assert_only_corruption(True, Block.decode, bytes(damaged))


def test_block_entries_are_bounds_checked_behind_a_valid_crc():
    """The same damage with the CRC recomputed: the entry parser itself
    must not read past the entries or raise anything but CorruptionError."""
    builder = BlockBuilder()
    for record in mutation_records():
        builder.add(record)
    body = builder.finish()[:-4]
    for position in range(len(body)):
        for flip in _FLIPS:
            damaged = bytearray(body)
            damaged[position] ^= flip
            resealed = bytes(damaged) + struct.pack(">I", zlib.crc32(damaged))
            # Undetectable damage (a value byte, say) may decode; it may not crash.
            assert_only_corruption(False, decode_all, resealed)


def write_mutation_table(tmp_path):
    path = str(tmp_path / "table.sst")
    writer = SSTableWriter(path)
    records = [
        InternalRecord(b"key%04d" % i, i + 1, ValueType.VALUE, b"v" * (40 + i % 7))
        for i in range(400)
    ]
    for record in records:
        writer.add(record)
    writer.finish()
    with open(path, "rb") as file:
        content = file.read()
    return path, content, records


def scan_table(path, content):
    with open(path, "wb") as file:
        file.write(content)
    reader = SSTableReader(path, table_id=1)
    try:
        return list(reader)
    finally:
        reader.close()


def test_every_truncation_and_byte_flip_of_an_index_block_is_corruption(tmp_path):
    path, content, records = write_mutation_table(tmp_path)
    _filter_off, _filter_size, index_off, index_size, _magic = _FOOTER.unpack(
        content[-_FOOTER.size :]
    )
    index = content[index_off : index_off + index_size]
    assert len(_decode_index(index)) > 3
    for cut in range(len(index)):
        assert_only_corruption(True, _decode_index, index[:cut])
    for position in range(len(index)):
        for flip in _FLIPS:
            damaged = bytearray(content)
            damaged[index_off + position] ^= flip
            # The index has no checksum: a flipped key byte or sequence byte
            # passes, but a damaged count, length, offset or size may not
            # send a read outside the file or fail with another exception.
            assert_only_corruption(
                False, _decode_index, bytes(damaged[index_off : index_off + index_size])
            )
            assert_only_corruption(False, scan_table, path, bytes(damaged))
    assert scan_table(path, content) == records


def test_every_truncation_and_byte_flip_of_a_footer_is_corruption(tmp_path):
    path, content, records = write_mutation_table(tmp_path)
    for cut in range(1, _FOOTER.size + 1):
        assert_only_corruption(True, scan_table, path, content[:-cut])
    for position in range(len(content) - _FOOTER.size, len(content)):
        for flip in _FLIPS:
            damaged = bytearray(content)
            damaged[position] ^= flip
            assert_only_corruption(True, scan_table, path, bytes(damaged))
    assert scan_table(path, content) == records
