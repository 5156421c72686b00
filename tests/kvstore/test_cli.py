"""Tests for the kvstore inspection CLI."""

import pytest

from repro.kvstore import DB
from repro.kvstore.__main__ import main


@pytest.fixture()
def db_dir(tmp_path):
    directory = str(tmp_path / "db")
    with DB.open(directory) as db:
        db.put(b"alpha", b"1")
        db.put(b"beta", b"2")
        db.flush()
    return directory


def test_stats(db_dir, capsys):
    assert main(["stats", db_dir]) == 0
    out = capsys.readouterr().out
    assert "last sequence" in out
    assert "level 0: 1 table(s)" in out


def test_stats_prints_tables_and_bytes_per_level(tmp_path, capsys):
    import os

    directory = str(tmp_path / "db")
    with DB.open(directory) as db:
        for i in range(50):
            db.put(b"key%02d" % i, b"v" * 100)
        db.flush()
        db.compact_range(0)
        db.put(b"key00", b"newer")
        db.flush()
    sizes = sorted(
        os.path.getsize(os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.endswith(".sst")
    )
    assert len(sizes) == 2
    assert main(["stats", directory]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"level 0: 1 table(s), {sizes[0]} bytes" in lines
    assert f"level 1: 1 table(s), {sizes[1]} bytes" in lines


def test_verify_ok(db_dir, capsys):
    assert main(["verify", db_dir]) == 0
    assert "ok:" in capsys.readouterr().out


def test_get_found_and_missing(db_dir, capsys):
    assert main(["get", db_dir, "alpha"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["get", db_dir, "nope"]) == 1


def test_scan_with_bounds(db_dir, capsys):
    assert main(["scan", db_dir, "--start", "b"]) == 0
    out = capsys.readouterr().out
    assert "beta = 2" in out and "alpha" not in out


def test_scan_limit(db_dir, capsys):
    assert main(["scan", db_dir, "--limit", "1"]) == 0
    assert "(1 entries)" in capsys.readouterr().out


def test_put_and_delete(db_dir, capsys):
    assert main(["put", db_dir, "gamma", "3"]) == 0
    assert main(["get", db_dir, "gamma"]) == 0
    assert main(["delete", db_dir, "gamma"]) == 0
    assert main(["get", db_dir, "gamma"]) == 1


def test_verify_detects_damage(db_dir, capsys):
    import os

    for name in os.listdir(db_dir):
        if name.endswith(".sst"):
            with open(os.path.join(db_dir, name), "r+b") as file:
                file.seek(10)
                file.write(b"\x00\x00\x00\x00")
    assert main(["verify", db_dir]) == 1
    assert "CORRUPT" in capsys.readouterr().out
