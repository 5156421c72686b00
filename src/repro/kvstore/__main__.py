"""Command-line inspection of a database directory.

Usage::

    python -m repro.kvstore stats  <dir>          # sequence; tables and bytes per level
    python -m repro.kvstore verify <dir>          # full-scan integrity check
    python -m repro.kvstore get    <dir> <key>    # point lookup (utf-8 key)
    python -m repro.kvstore scan   <dir> [--start S] [--end E] [--limit N]
    python -m repro.kvstore put    <dir> <key> <value>
    python -m repro.kvstore delete <dir> <key>
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import CorruptionError
from repro.kvstore import DB


def _key(text: str) -> bytes:
    return text.encode()


def _display(data: bytes) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError:
        return data.hex()


def cmd_stats(db: DB, _args) -> int:
    counts = db.level_file_counts()
    print(f"last sequence: {db.last_sequence}")
    for level, (count, size) in enumerate(zip(counts, db.level_size_bytes())):
        if count:
            print(f"level {level}: {count} table(s), {size} bytes")
    if not any(counts):
        print("no tables (all data in WAL/memtable)")
    return 0


def cmd_verify(db: DB, _args) -> int:
    try:
        result = db.verify_integrity()
    except CorruptionError as error:
        print(f"CORRUPT: {error}")
        return 1
    print(f"ok: {result['tables']} table(s), {result['records']} record(s) verified")
    return 0


def cmd_get(db: DB, args) -> int:
    value = db.get(_key(args.key))
    if value is None:
        print("(not found)")
        return 1
    print(_display(value))
    return 0


def cmd_scan(db: DB, args) -> int:
    start = _key(args.start) if args.start else None
    end = _key(args.end) if args.end else None
    shown = 0
    for key, value in db.iterate(start=start, end=end):
        print(f"{_display(key)} = {_display(value)}")
        shown += 1
        if args.limit and shown >= args.limit:
            break
    print(f"({shown} entries)")
    return 0


def cmd_put(db: DB, args) -> int:
    db.put(_key(args.key), args.value.encode())
    print("ok")
    return 0


def cmd_delete(db: DB, args) -> int:
    db.delete(_key(args.key))
    print("ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.kvstore")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, needs in [
        ("stats", []),
        ("verify", []),
        ("get", ["key"]),
        ("put", ["key", "value"]),
        ("delete", ["key"]),
        ("scan", []),
    ]:
        command = sub.add_parser(name)
        command.add_argument("directory")
        for field in needs:
            command.add_argument(field)
        if name == "scan":
            command.add_argument("--start", default=None)
            command.add_argument("--end", default=None)
            command.add_argument("--limit", type=int, default=0)

    args = parser.parse_args(argv)
    handler = {
        "stats": cmd_stats,
        "verify": cmd_verify,
        "get": cmd_get,
        "scan": cmd_scan,
        "put": cmd_put,
        "delete": cmd_delete,
    }[args.command]
    with DB.open(args.directory) as db:
        return handler(db, args)


if __name__ == "__main__":
    sys.exit(main())
