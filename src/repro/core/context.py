"""The invocation context: the host API guest methods see as ``self``.

The context is the *only* capability a method holds.  It exposes:

- the current object's fields (reads through the write buffer, writes into
  it) — and nothing of any other object's data, which is what makes
  "functions can only modify data associated with the object itself"
  (paper §3) structural rather than a convention;
- cross-object invocation (``self.get_object(oid).some_method(...)``),
  which commits buffered writes first (§3.1);
- metered utilities (``now``, ``random``, ``log``) that mark the
  invocation non-deterministic where appropriate.

Method-call sugar mirrors the paper's pseudocode: attribute access for a
declared method returns a dispatcher, so ``self.store_post(...)`` and
``self.get_object(oid).store_post(...)`` both work.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.errors import ReadOnlyViolation
from repro.core import keyspace
from repro.core.fields import FieldKind, decode_value, encode_value
from repro.core.ids import ObjectId
from repro.core.object_type import ObjectType
from repro.core.writeset import WriteSet
from repro.wasm.fuel import FuelMeter, MemoryMeter
from repro.wasm.host_api import HostAPI, OpCosts


class InvocationContext(HostAPI):
    """Concrete host API bound to one invocation of one object."""

    def __init__(
        self,
        runtime: Any,
        object_id: ObjectId,
        object_type: ObjectType,
        writeset: WriteSet,
        fuel: FuelMeter,
        costs: OpCosts,
        readonly: bool,
        depth: int = 0,
    ) -> None:
        self._runtime = runtime
        self._object_id = object_id
        self._type = object_type
        self._writeset = writeset
        self._fuel = fuel
        self._costs = costs
        self._readonly = readonly
        self.depth = depth
        #: false once the guest consults now()/random()
        self.deterministic = True
        #: set true when a nested invocation was dispatched
        self.dispatched_nested = False
        #: number of commit segments so far (bumped by the runtime)
        self.parts = 0
        self.logs: list[str] = []
        self.sub_results: list[Any] = []
        #: keys committed across every segment of this invocation
        self.all_written_keys: list[bytes] = []
        self._memory: Optional[MemoryMeter] = None

    # -- wiring ------------------------------------------------------------

    def bind_memory(self, memory: MemoryMeter) -> None:
        """Attach the sandbox instance's memory meter.  The meter, not the
        instance: the instance holds this context as its host API, and a
        reference back would tie the two into a cycle per invocation."""
        self._memory = memory

    @property
    def writeset(self) -> WriteSet:
        return self._writeset

    @property
    def readonly(self) -> bool:
        return self._readonly

    def _charge(self, units: float, payload_bytes: int = 0) -> None:
        self._fuel.consume(units + self._costs.payload(payload_bytes))

    def _charge_memory(self, num_bytes: int) -> None:
        if self._memory is not None:
            self._memory.charge(num_bytes)

    def _forbid_write(self, what: str) -> None:
        if self._readonly:
            raise ReadOnlyViolation(
                f"read-only method on {self._type.name} attempted to {what}"
            )

    # -- value fields ----------------------------------------------------

    def get_value(self, field: str) -> Any:
        spec = self._type.require_field(field, FieldKind.VALUE)
        key = keyspace.value_key(self._object_id, field)
        data = self._writeset.get(key)
        self._charge(self._costs.kv_get, len(data) if data else 0)
        if data is None:
            return spec.default
        self._charge_memory(len(data))
        return decode_value(data)

    def set_value(self, field: str, value: Any) -> None:
        self._forbid_write(f"set field {field!r}")
        self._type.require_field(field, FieldKind.VALUE)
        data = encode_value(value)
        self._charge(self._costs.kv_put, len(data))
        self._writeset.put(keyspace.value_key(self._object_id, field), data)

    # Short aliases matching the examples and the paper's flavour.
    get = get_value
    set = set_value

    # -- collection fields --------------------------------------------------

    def collection(self, field: str) -> "CollectionView":
        """A view over one collection field."""
        self._type.require_field(field, FieldKind.COLLECTION)
        return CollectionView(self, field)

    def collection_get(self, field: str, key: str) -> Any:
        self._type.require_field(field, FieldKind.COLLECTION)
        data = self._writeset.get(keyspace.collection_key(self._object_id, field, key))
        self._charge(self._costs.kv_get, len(data) if data else 0)
        if data is None:
            return None
        self._charge_memory(len(data))
        return decode_value(data)

    def collection_put(self, field: str, key: str, value: Any) -> None:
        self._forbid_write(f"write collection {field!r}")
        self._type.require_field(field, FieldKind.COLLECTION)
        data = encode_value(value)
        self._charge(self._costs.kv_put, len(data))
        self._writeset.put(keyspace.collection_key(self._object_id, field, key), data)
        self._bump_collection_version(field)

    def collection_delete(self, field: str, key: str) -> None:
        self._forbid_write(f"delete from collection {field!r}")
        self._type.require_field(field, FieldKind.COLLECTION)
        self._charge(self._costs.kv_delete)
        self._writeset.delete(keyspace.collection_key(self._object_id, field, key))
        self._bump_collection_version(field)

    def collection_append(self, field: str, value: Any) -> str:
        self._forbid_write(f"append to collection {field!r}")
        self._type.require_field(field, FieldKind.COLLECTION)
        counter = self._bump_collection_version(field)
        entry_key = keyspace.append_entry_key(counter)
        data = encode_value(value)
        self._charge(self._costs.collection_append, len(data))
        self._writeset.put(keyspace.collection_key(self._object_id, field, entry_key), data)
        return entry_key

    def _bump_collection_version(self, field: str) -> int:
        """Advance the collection's version counter; returns the new value.

        The counter doubles as the append-key source and as the version
        stamp collection scans record in their read set — any mutation to
        the collection therefore invalidates cached scan results
        (phantom-safe caching, §4.2.2).
        """
        key = keyspace.counter_key(self._object_id, field)
        raw = self._writeset.get(key)
        counter = (decode_value(raw) if raw is not None else 0) + 1
        self._writeset.put(key, encode_value(counter))
        return counter

    def collection_items(
        self, field: str, limit: Optional[int] = None, reverse: bool = False
    ) -> Iterator[tuple[str, Any]]:
        self._type.require_field(field, FieldKind.COLLECTION)
        prefix = keyspace.collection_prefix(self._object_id, field)
        end = keyspace.prefix_end(prefix)

        # Scans observe the collection version, so cached results are
        # invalidated by any later mutation (including deletes of keys the
        # scan never yielded).
        version_key = keyspace.counter_key(self._object_id, field)
        self._writeset.note_read(version_key, self._runtime.storage.get(version_key))

        note_read = self._writeset.note_read
        buffered = self._writeset.buffered_under(prefix)
        if buffered:
            merged: dict[bytes, Optional[bytes]] = {}
            for storage_key, data in self._runtime.storage.iterate(prefix, end):
                merged[storage_key] = data
                note_read(storage_key, data)
            merged.update(buffered)
            entries = [(key, merged[key]) for key in sorted(merged, reverse=reverse)]
        else:
            # Committed iteration is already key-ordered; skip the
            # merge-and-sort (the common case: scans of collections this
            # invocation has not written).
            entries = list(self._runtime.storage.iterate(prefix, end))
            for storage_key, data in entries:
                note_read(storage_key, data)
            if reverse:
                entries.reverse()

        count = 0
        consume = self._fuel.consume
        per_item = self._costs.collection_scan_per_item
        payload = self._costs.payload
        memory = self._memory
        for storage_key, data in entries:
            if data is None:
                continue  # buffered deletion
            if limit is not None and count >= limit:
                return
            consume(per_item + payload(len(data)))
            if memory is not None:
                memory.charge(len(data))
            yield keyspace.entry_key_from_storage_key(storage_key, prefix), decode_value(data)
            count += 1

    def collection_len(self, field: str) -> int:
        """Number of live entries in a collection."""
        return sum(1 for _ in self.collection_items(field))

    # -- composition -----------------------------------------------------

    def invoke(self, object_id: Any, method: str, *args: Any) -> Any:
        """Invoke a method of another object (or this one).

        Commits this invocation's buffered writes first (§3.1), so the
        callee — and everyone else — sees them.
        """
        self._charge(self._costs.invoke_dispatch)
        self.dispatched_nested = True
        return self._runtime.nested_invoke(self, ObjectId(object_id), method, args)

    def get_object(self, object_id: Any) -> "ObjectProxy":
        """A call proxy for another object (``proxy.method(args)``)."""
        return ObjectProxy(self, ObjectId(object_id))

    # -- utilities ---------------------------------------------------------

    def now(self) -> float:
        """Current time in milliseconds; marks the invocation
        non-deterministic (its result is never cached)."""
        self._charge(self._costs.utility)
        self.deterministic = False
        return self._runtime.clock()

    def random(self) -> float:
        """Uniform random float; marks the invocation non-deterministic."""
        self._charge(self._costs.utility)
        self.deterministic = False
        return self._runtime.guest_rng.random()

    def log(self, message: str) -> None:
        self._charge(self._costs.utility)
        self.logs.append(str(message))

    def self_id(self) -> ObjectId:
        return self._object_id

    @property
    def type_name(self) -> str:
        return self._type.name

    # -- method-call sugar ---------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        # Only reached when normal attribute lookup fails: resolve declared
        # method names to self-invocation dispatchers so guest code can
        # write ``self.store_post(...)`` as in the paper's Listing 1.
        type_obj = self.__dict__.get("_type")
        if type_obj is not None and type_obj.has_method(name):
            return lambda *args: self.invoke(self._object_id, name, *args)
        raise AttributeError(
            f"{type(self).__name__} has no attribute {name!r} and "
            f"{type_obj.name if type_obj else '?'} declares no such method"
        )


class CollectionView:
    """Bound helper for one collection field (``self.collection("posts")``)."""

    def __init__(self, ctx: InvocationContext, field: str) -> None:
        self._ctx = ctx
        self._field = field

    def get(self, key: str) -> Any:
        """Entry under ``key`` or ``None``."""
        return self._ctx.collection_get(self._field, key)

    def put(self, key: str, value: Any) -> None:
        """Insert/overwrite the entry under ``key``."""
        self._ctx.collection_put(self._field, key, value)

    def delete(self, key: str) -> None:
        """Remove the entry under ``key`` (no-op if absent)."""
        self._ctx.collection_delete(self._field, key)

    def push(self, value: Any) -> str:
        """Append under a fresh increasing key; returns the key."""
        return self._ctx.collection_append(self._field, value)

    def items(self, limit: Optional[int] = None, reverse: bool = False):
        """Iterate ``(key, value)`` pairs in key order."""
        return self._ctx.collection_items(self._field, limit=limit, reverse=reverse)

    def values(self, limit: Optional[int] = None, reverse: bool = False):
        """Iterate values in key order."""
        for _key, value in self.items(limit=limit, reverse=reverse):
            yield value

    def __len__(self) -> int:
        return self._ctx.collection_len(self._field)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None


class ObjectProxy:
    """Remote-object call sugar: attribute access dispatches invocations."""

    def __init__(self, ctx: InvocationContext, object_id: ObjectId) -> None:
        self._ctx = ctx
        self._object_id = object_id

    @property
    def object_id(self) -> ObjectId:
        return self._object_id

    def __getattr__(self, method: str) -> Any:
        if method.startswith("_"):
            raise AttributeError(method)
        return lambda *args: self._ctx.invoke(self._object_id, method, *args)
