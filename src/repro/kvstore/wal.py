"""Write-ahead log.

Records are framed as ``[crc32:4][length:4][payload]`` with both integers
big-endian; the CRC covers the length field and payload, so a torn write
anywhere in the frame is detected.  Recovery reads records until EOF or the
first damaged frame — everything before the damage is kept, matching the
usual "valid prefix" WAL contract.  (LevelDB uses a 32 KiB-blocked format
with record fragmentation; simple framing preserves the same durability
semantics for this reproduction.)
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, Iterator

from repro.errors import CorruptionError, DBClosedError

_HEADER = struct.Struct(">II")
_LENGTH = struct.Struct(">I")


class WALWriter:
    """Appends framed records to a log file."""

    def __init__(self, path: str, sync: bool = False) -> None:
        self._path = path
        self._sync = sync
        self._file: BinaryIO | None = open(path, "ab")

    @property
    def path(self) -> str:
        return self._path

    def append(self, payload: bytes) -> None:
        """Durably append one record."""
        if self._file is None:
            raise DBClosedError(f"WAL {self._path} is closed")
        self._file.write(_HEADER.pack(_frame_crc(payload), len(payload)))
        self._file.write(payload)
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())

    def size(self) -> int:
        """Current log size in bytes."""
        if self._file is None:
            raise DBClosedError(f"WAL {self._path} is closed")
        return self._file.tell()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WALWriter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _frame_crc(payload: bytes) -> int:
    # CRC covers length + payload so a frame with a corrupted length fails too.
    return zlib.crc32(payload, zlib.crc32(_LENGTH.pack(len(payload))))


def read_wal(path: str, strict: bool = False) -> Iterator[bytes]:
    """Yield intact record payloads from a log file, oldest first.

    Stops at the first damaged frame.  With ``strict=True`` damage raises
    :class:`CorruptionError` instead of being treated as end-of-log.
    """
    with open(path, "rb") as file:
        while True:
            header = file.read(_HEADER.size)
            if not header:
                return
            if len(header) < _HEADER.size:
                if strict:
                    raise CorruptionError(f"{path}: truncated WAL header")
                return
            crc, length = _HEADER.unpack(header)
            payload = file.read(length)
            if len(payload) < length:
                if strict:
                    raise CorruptionError(f"{path}: truncated WAL payload")
                return
            if _frame_crc(payload) != crc:
                if strict:
                    raise CorruptionError(f"{path}: WAL record failed CRC check")
                return
            yield payload
