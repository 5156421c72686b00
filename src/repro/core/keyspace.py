"""Layout of object data onto the flat key-value keyspace.

Every object's data lives under keys prefixed by its id, which is what
makes an object a *microshard* (paper §4.2): copying the key range
``o/<oid>/`` moves the whole object.

Key shapes::

    o/<oid>/m                      object metadata (type name)
    o/<oid>/v/<field>              value field
    o/<oid>/c/<field>/<entry key>  collection entry
    o/<oid>/n/<field>              collection append counter

Field names are identifier-restricted and ids are fixed-width hex, so
``/`` never needs escaping; entry keys sit at the end of the key, so they
may contain anything.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ids import ObjectId

#: width of zero-padded append counters; lexicographic == numeric order
APPEND_KEY_WIDTH = 20


def meta_key(oid: ObjectId) -> bytes:
    """Key holding the object's type name."""
    return f"o/{oid}/m".encode()


def value_key(oid: ObjectId, field: str) -> bytes:
    """Key of a value field."""
    return f"o/{oid}/v/{field}".encode()


def collection_key(oid: ObjectId, field: str, entry_key: str) -> bytes:
    """Key of one collection entry."""
    return f"o/{oid}/c/{field}/".encode() + entry_key.encode()


def collection_prefix(oid: ObjectId, field: str) -> bytes:
    """Prefix under which all entries of a collection live."""
    return f"o/{oid}/c/{field}/".encode()


def counter_key(oid: ObjectId, field: str) -> bytes:
    """Key of a collection's append counter."""
    return f"o/{oid}/n/{field}".encode()


def object_prefix(oid: ObjectId) -> bytes:
    """Prefix covering every key the object owns (its microshard)."""
    return f"o/{oid}/".encode()


#: length of ``o/<oid>/``.  :class:`~repro.core.storage.MemoryBackend`
#: buckets its ordered index by this many leading key bytes, so that one
#: bucket holds one microshard; nothing but speed depends on the value.
OBJECT_PREFIX_WIDTH = len(object_prefix(ObjectId.from_name("")))


def append_entry_key(counter: int) -> str:
    """Entry key for append number ``counter`` (zero-padded, sortable)."""
    return f"{counter:0{APPEND_KEY_WIDTH}d}"


def prefix_end(prefix: bytes) -> Optional[bytes]:
    """Smallest key strictly greater than every key with ``prefix``.

    Returns ``None`` if no such key exists (prefix of all 0xff).
    """
    out = bytearray(prefix)
    while out:
        if out[-1] != 0xFF:
            out[-1] += 1
            return bytes(out)
        out.pop()
    return None


def entry_key_from_storage_key(storage_key: bytes, prefix: bytes) -> str:
    """Recover a collection entry key from its full storage key."""
    return storage_key[len(prefix) :].decode()
