"""Unit tests for SSTable writer/reader."""

import pytest

from repro.errors import CorruptionError
from repro.kvstore.record import InternalRecord, MAX_SEQUENCE, ValueType
from repro.kvstore.sstable import SSTableReader, SSTableWriter


def write_table(tmp_path, records, name="t.sst", **kwargs):
    path = str(tmp_path / name)
    writer = SSTableWriter(path, **kwargs)
    for record in records:
        writer.add(record)
    meta = writer.finish()
    return path, meta


def make_records(count, value_size=10):
    return [
        InternalRecord(b"key%06d" % i, i + 1, ValueType.VALUE, b"v" * value_size)
        for i in range(count)
    ]


def test_point_reads(tmp_path):
    records = make_records(500)
    path, _meta = write_table(tmp_path, records)
    reader = SSTableReader(path)
    for record in records[::37]:
        found = reader.get(record.user_key, MAX_SEQUENCE)
        assert found is not None and found.value == record.value
    assert reader.get(b"nope", MAX_SEQUENCE) is None
    reader.close()


def test_meta_reports_bounds(tmp_path):
    records = make_records(100)
    _path, meta = write_table(tmp_path, records)
    assert meta.smallest == b"key000000"
    assert meta.largest == b"key000099"
    assert meta.entry_count == 100
    assert meta.size_bytes > 0


def test_sequence_filtering(tmp_path):
    records = [
        InternalRecord(b"k", 9, ValueType.VALUE, b"new"),
        InternalRecord(b"k", 3, ValueType.VALUE, b"old"),
    ]
    path, _ = write_table(tmp_path, records)
    reader = SSTableReader(path)
    assert reader.get(b"k", MAX_SEQUENCE).value == b"new"
    assert reader.get(b"k", 5).value == b"old"
    assert reader.get(b"k", 1) is None
    reader.close()


def test_full_iteration_sorted(tmp_path):
    records = make_records(1000, value_size=50)
    path, _ = write_table(tmp_path, records)
    reader = SSTableReader(path)
    assert list(reader) == records
    reader.close()


def test_iterate_from_mid_table(tmp_path):
    records = make_records(300)
    path, _ = write_table(tmp_path, records)
    reader = SSTableReader(path)
    tail = list(reader.iterate_from(b"key000150", MAX_SEQUENCE))
    assert tail == records[150:]
    reader.close()


def test_out_of_order_add_rejected(tmp_path):
    writer = SSTableWriter(str(tmp_path / "bad.sst"))
    writer.add(InternalRecord(b"b", 1, ValueType.VALUE, b""))
    with pytest.raises(CorruptionError):
        writer.add(InternalRecord(b"a", 2, ValueType.VALUE, b""))


def test_empty_table_rejected(tmp_path):
    writer = SSTableWriter(str(tmp_path / "empty.sst"))
    with pytest.raises(CorruptionError):
        writer.finish()


def test_bad_magic_rejected(tmp_path):
    records = make_records(10)
    path, _ = write_table(tmp_path, records)
    with open(path, "r+b") as file:
        file.seek(-4, 2)
        file.write(b"\x00\x00\x00\x00")
    with pytest.raises(CorruptionError):
        SSTableReader(path)


def test_bloom_filter_skips_absent_keys(tmp_path):
    records = make_records(100)
    path, _ = write_table(tmp_path, records)
    reader = SSTableReader(path)
    hits = sum(reader.may_contain(b"absent-%d" % i) for i in range(1000))
    assert hits < 100  # mostly filtered out
    reader.close()


def test_multi_block_boundaries(tmp_path):
    # Values large enough to force many blocks; check keys at block edges.
    records = make_records(400, value_size=200)
    path, _ = write_table(tmp_path, records)
    reader = SSTableReader(path)
    for record in records:
        found = reader.get(record.user_key, MAX_SEQUENCE)
        assert found is not None, record.user_key
    reader.close()


def test_abandon_removes_file(tmp_path):
    path = str(tmp_path / "gone.sst")
    writer = SSTableWriter(path)
    writer.add(InternalRecord(b"a", 1, ValueType.VALUE, b""))
    writer.abandon()
    import os

    assert not os.path.exists(path)
