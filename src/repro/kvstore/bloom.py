"""Bloom filter for SSTable key membership.

Uses the standard double-hashing scheme (Kirsch & Mitzenmacher): two base
hashes derived from one 64-bit digest generate all ``k`` probe positions,
``(h1 + i * h2) mod num_bits``.
False positives are possible; false negatives are not — compaction and
reads rely on that invariant, and the property tests enforce it.
"""

from __future__ import annotations

import hashlib
import math
import struct

from repro.errors import CorruptionError


def hash_key(key: bytes) -> int:
    """The 64-bit digest every filter derives its probes from.

    A point read computes it once and hands it to the filter of every
    table it reaches (:meth:`BloomFilter.may_contain_hash`).
    """
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


class BloomFilter:
    """A fixed-size bloom filter built once over a set of keys."""

    def __init__(self, bit_array: bytearray, num_probes: int) -> None:
        self._bits = bit_array
        self._num_bits = len(bit_array) * 8
        self._num_probes = num_probes

    @classmethod
    def build(cls, keys: list[bytes], bits_per_key: int = 10) -> "BloomFilter":
        """Build a filter sized for ``keys`` at ``bits_per_key`` density.

        10 bits/key gives a ~1% false-positive rate, LevelDB's default.
        ``keys`` may repeat (a table lists a key once per version, the
        versions next to each other): every entry counts towards the
        size, and a run of equal keys is hashed once.
        """
        if bits_per_key < 1:
            raise ValueError(f"bits_per_key must be >= 1, got {bits_per_key}")
        num_bytes = (max(64, len(keys) * bits_per_key) + 7) // 8
        num_bits = num_bytes * 8
        num_probes = max(1, min(30, round(bits_per_key * math.log(2))))
        # Probes mark one byte per bit, as the digits "0"/"1" of a binary
        # numeral; the numeral is packed into the bit array at the end.
        # A probe is then a single item store.
        digits = bytearray(b"0") * num_bits
        probes = range(num_probes)
        previous = None
        for key in keys:
            if key == previous:
                continue
            previous = key
            digest = hash_key(key)
            pos = digest & 0xFFFFFFFF
            step = digest >> 32
            for _ in probes:
                digits[pos % num_bits] = 0x31
                pos += step
        digits.reverse()  # bit 0 is the numeral's last digit
        return cls(bytearray(int(digits, 2).to_bytes(num_bytes, "little")), num_probes)

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        return self.may_contain_hash(hash_key(key))

    def may_contain_hash(self, digest: int) -> bool:
        """:meth:`may_contain` for a key whose :func:`hash_key` is ``digest``."""
        pos = digest & 0xFFFFFFFF
        step = digest >> 32
        bits = self._bits
        num_bits = self._num_bits
        for _ in range(self._num_probes):
            bit = pos % num_bits
            if not bits[bit >> 3] & (1 << (bit & 7)):
                return False
            pos += step
        return True

    # -- serialisation -----------------------------------------------------

    def encode(self) -> bytes:
        """Serialise as ``[num_probes:1][bit array]``."""
        return struct.pack(">B", self._num_probes) + bytes(self._bits)

    @classmethod
    def decode(cls, data: bytes) -> "BloomFilter":
        """Inverse of :meth:`encode`."""
        if len(data) < 2:
            raise CorruptionError("bloom filter block too short")
        (num_probes,) = struct.unpack(">B", data[:1])
        if num_probes < 1:
            raise CorruptionError(f"bloom filter has bad probe count {num_probes}")
        return cls(bytearray(data[1:]), num_probes)

    @property
    def size_bytes(self) -> int:
        return len(self._bits)
