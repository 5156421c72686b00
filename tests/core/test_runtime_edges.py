"""Additional core-model edge cases: memory limits, cache oddities,
write-set visibility across nested calls, and invocation metadata."""

import pytest

from repro.core import (
    CollectionField,
    LocalRuntime,
    ObjectType,
    ValueField,
    method,
    readonly_method,
)
from repro.core import keyspace
from repro.core.fields import decode_value
from repro.errors import InvocationError, MemoryLimitExceeded


def test_memory_limit_trap_aborts_cleanly():
    runtime = LocalRuntime(memory_limit_bytes=256, enable_cache=False)

    def hoard(self):
        self.set("blob", "x" * 10_000)
        return self.get("blob")  # reading the big value charges guest memory

    t = ObjectType("Hoarder", fields=[ValueField("blob")], methods=[method(hoard)])
    runtime.register_type(t)
    oid = runtime.create_object("Hoarder")
    with pytest.raises(InvocationError) as excinfo:
        runtime.invoke(oid, "hoard")
    # MemoryLimitExceeded is itself a Trap, so it chains directly.
    assert isinstance(excinfo.value.__cause__, MemoryLimitExceeded)
    # The failed invocation committed nothing.
    from repro.core import keyspace

    assert runtime.storage.get(keyspace.value_key(oid, "blob")) is None


def test_an_invocation_is_freed_by_reference_count():
    """Nothing an invocation builds refers back to its context: no cycle
    per invocation."""
    import gc
    import weakref

    runtime = LocalRuntime()
    kept, seen = [], []

    def peek(self):
        kept.append(self)
        seen.append(weakref.ref(self))
        return self.get("v")

    t = ObjectType("Peek", fields=[ValueField("v", default="x")], methods=[method(peek)])
    runtime.register_type(t)
    oid = runtime.create_object("Peek")
    gc.collect()
    gc.disable()
    try:
        assert runtime.invoke(oid, "peek") == "x"
        (ctx,) = kept
        assert ctx._memory.used > 0
        del ctx
        kept.clear()
        assert seen[0]() is None
    finally:
        gc.enable()


def test_type_of_decodes_each_meta_value_once(monkeypatch):
    from repro.core import runtime as runtime_module

    decoded = []
    real = runtime_module.decode_value
    monkeypatch.setattr(
        runtime_module, "decode_value", lambda data: decoded.append(data) or real(data)
    )
    def noop(self):
        return None

    runtime = LocalRuntime()
    first = ObjectType("Memo", fields=[ValueField("v")], methods=[method(noop)])
    runtime.register_type(first)
    a, b = runtime.create_object("Memo"), runtime.create_object("Memo")
    assert runtime.type_of(a) is first and runtime.type_of(b) is first
    assert runtime.type_of(a) is first
    assert len(decoded) == 1
    # The memo maps bytes to a name; the type is still looked up by name.
    second = ObjectType("Memo", fields=[ValueField("v")], methods=[method(noop)])
    runtime.register_type(second)
    assert runtime.type_of(a) is second
    assert len(decoded) == 1


def test_unserialisable_args_skip_cache_but_execute():
    runtime = LocalRuntime()

    def echo(self, value):
        return str(type(value).__name__)

    t = ObjectType("Echo", fields=[], methods=[readonly_method(echo)])
    runtime.register_type(t)
    oid = runtime.create_object("Echo")
    result = runtime.invoke_detailed(oid, "echo", object())
    assert result.value == "object"
    assert not result.cache_hit
    # And again: still executes (never cached).
    assert not runtime.invoke_detailed(oid, "echo", object()).cache_hit


def test_nested_call_sees_callers_committed_writes():
    runtime = LocalRuntime()

    def outer(self, other):
        self.set("v", "written-by-outer")
        # The nested call commits our write first (§3.1), so the callee
        # observes it through the committed state.
        return self.get_object(other).peek_at(self.self_id())

    def peek_at(self, target):
        return self.get_object(target).read_v()

    def read_v(self):
        return self.get("v")

    t = ObjectType(
        "Chain",
        fields=[ValueField("v")],
        methods=[method(outer), method(peek_at, public=False), readonly_method(read_v, public=False)],
    )
    runtime.register_type(t)
    a = runtime.create_object("Chain")
    b = runtime.create_object("Chain")
    assert runtime.invoke(a, "outer", b) == "written-by-outer"


def test_invocation_result_metadata():
    runtime = LocalRuntime()

    def touch(self):
        self.set("v", 1)
        return "ok"

    t = ObjectType("Meta", fields=[ValueField("v")], methods=[method(touch)])
    runtime.register_type(t)
    oid = runtime.create_object("Meta")
    storage = runtime.storage
    writes = storage.puts + storage.deletes
    result = runtime.invoke_detailed(oid, "touch")
    assert result.value == "ok"
    assert result.fuel_used > 0
    assert result.total_invocations() == 1
    assert runtime.stats.commits == 1
    assert storage.puts + storage.deletes == writes + 1
    assert decode_value(runtime.storage.get(keyspace.value_key(oid, "v"))) == 1


def test_written_keys_span_all_segments():
    runtime = LocalRuntime()

    def two_phase(self, other):
        self.set("v", "before")
        self.get_object(other).noop()
        self.set("w", "after")

    def noop(self):
        return None

    t = ObjectType(
        "TwoPhase",
        fields=[ValueField("v"), ValueField("w")],
        methods=[method(two_phase), method(noop, public=False)],
    )
    runtime.register_type(t)
    a = runtime.create_object("TwoPhase")
    b = runtime.create_object("TwoPhase")
    runtime.invoke(a, "two_phase", b)
    # §3.1: the nested call splits the caller into two commit segments.
    assert runtime.stats.commits == 2
    committed = [runtime.storage.get(keyspace.value_key(a, f)) for f in ("v", "w")]
    assert [decode_value(data) for data in committed] == ["before", "after"]


def test_collection_len_and_contains_through_invocation():
    runtime = LocalRuntime()

    def fill(self):
        view = self.collection("c")
        view.put("present", 1)
        return ("present" in view, "absent" in view, len(view))

    t = ObjectType("Coll", fields=[CollectionField("c")], methods=[method(fill)])
    runtime.register_type(t)
    oid = runtime.create_object("Coll")
    assert runtime.invoke(oid, "fill") == (True, False, 1)


def test_collection_values_iterator():
    runtime = LocalRuntime()

    def fill_and_list(self):
        self.collection("c").push("a")
        self.collection("c").push("b")
        return list(self.collection("c").values(reverse=True))

    t = ObjectType("Vals", fields=[CollectionField("c")], methods=[method(fill_and_list)])
    runtime.register_type(t)
    oid = runtime.create_object("Vals")
    assert runtime.invoke(oid, "fill_and_list") == ["b", "a"]
