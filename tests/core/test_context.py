"""Tests for the invocation context: fields, collections, sugar, metering."""

import pytest

from repro.core import LocalRuntime, ObjectType, ValueField, method, readonly_method
from repro.errors import InvocationError, UnknownFieldError
from repro.wasm.host_api import OpCosts


# -- value fields through invocations -----------------------------------------


def test_value_default_returned_when_unset(runtime):
    oid = runtime.create_object("Counter")
    assert runtime.invoke(oid, "read") == 0


def test_unknown_field_access_traps(runtime):
    def touch_bad_field(self):
        return self.get("nonexistent")

    bad = ObjectType("FieldBad", fields=[], methods=[method(touch_bad_field)])
    runtime.register_type(bad)
    oid = runtime.create_object("FieldBad")
    with pytest.raises(InvocationError) as excinfo:
        runtime.invoke(oid, "touch_bad_field")
    assert isinstance(excinfo.value.__cause__.__cause__, UnknownFieldError)


# -- collections ------------------------------------------------------------


def test_push_returns_increasing_keys(runtime):
    oid = runtime.create_object("Notebook")
    k1 = runtime.invoke(oid, "add_note", "first")
    k2 = runtime.invoke(oid, "add_note", "second")
    assert k1 < k2


def test_items_in_key_order_and_reverse(runtime):
    oid = runtime.create_object("Notebook")
    for text in ["a", "b", "c"]:
        runtime.invoke(oid, "add_note", text)
    forward = [value for _k, value in runtime.invoke(oid, "list_notes")]
    backward = [value for _k, value in runtime.invoke(oid, "list_notes", None, True)]
    assert forward == ["a", "b", "c"]
    assert backward == ["c", "b", "a"]


def test_items_limit(runtime):
    oid = runtime.create_object("Notebook")
    for text in ["a", "b", "c", "d"]:
        runtime.invoke(oid, "add_note", text)
    limited = runtime.invoke(oid, "list_notes", 2)
    assert [value for _k, value in limited] == ["a", "b"]


def test_put_get_delete_by_key(runtime):
    oid = runtime.create_object("Notebook")
    runtime.invoke(oid, "set_note", "k", "hello")
    assert ("k", "hello") in runtime.invoke(oid, "list_notes")
    runtime.invoke(oid, "remove_note", "k")
    assert runtime.invoke(oid, "list_notes") == []


def test_scan_sees_own_buffered_writes():
    rt = LocalRuntime()

    def add_two_then_count(self):
        self.collection("notes").push("x")
        self.collection("notes").push("y")
        return len(self.collection("notes"))

    notebook = ObjectType(
        "N",
        fields=[__import__("repro.core", fromlist=["CollectionField"]).CollectionField("notes")],
        methods=[method(add_two_then_count)],
    )
    rt.register_type(notebook)
    oid = rt.create_object("N")
    assert rt.invoke(oid, "add_two_then_count") == 2


def test_scan_hides_own_buffered_deletes(runtime):
    def delete_then_count(self, key):
        self.collection("notes").delete(key)
        return len(self.collection("notes"))

    from repro.core import CollectionField

    notebook = ObjectType(
        "N2", fields=[CollectionField("notes")], methods=[method(delete_then_count)]
    )
    runtime.register_type(notebook)
    oid = runtime.create_object("N2", initial={"notes": {"k": "v", "other": "w"}})
    assert runtime.invoke(oid, "delete_then_count", "k") == 1


# -- utilities & determinism tracking -----------------------------------------


def test_now_marks_nondeterministic(runtime):
    oid = runtime.create_object("Counter")
    result = runtime.invoke_detailed(oid, "read_with_time")
    assert result.cache_hit is False
    # Invoking again re-executes: never cached.
    again = runtime.invoke_detailed(oid, "read_with_time")
    assert again.cache_hit is False


def test_clock_is_monotonic(runtime):
    def stamp(self):
        return self.now()

    from repro.core import ValueField as VF

    t = ObjectType("Clocked", fields=[], methods=[method(stamp)])
    runtime.register_type(t)
    oid = runtime.create_object("Clocked")
    times = [runtime.invoke(oid, "stamp") for _ in range(5)]
    assert times == sorted(times)
    assert len(set(times)) == 5


def test_guest_random_is_seeded():
    def draw(self):
        return self.random()

    t = ObjectType("Rand", fields=[], methods=[method(draw)])
    rt1 = LocalRuntime(seed=5)
    rt2 = LocalRuntime(seed=5)
    for rt in (rt1, rt2):
        rt.register_type(t)
    o1 = rt1.create_object("Rand")
    o2 = rt2.create_object("Rand")
    assert rt1.invoke(o1, "draw") == rt2.invoke(o2, "draw")


def test_self_id_matches(runtime):
    def who(self):
        return self.self_id()

    t = ObjectType("Who", fields=[], methods=[readonly_method(who)])
    runtime.register_type(t)
    oid = runtime.create_object("Who")
    assert runtime.invoke(oid, "who") == oid


# -- metering -----------------------------------------------------------


def test_fuel_grows_with_work(runtime):
    oid = runtime.create_object("Notebook")
    small = runtime.invoke_detailed(oid, "add_note", "x").fuel_used
    oid2 = runtime.create_object("Notebook")
    for i in range(20):
        runtime.invoke(oid2, "add_note", f"note-{i}")
    big = runtime.invoke_detailed(oid2, "list_notes").fuel_used
    assert big > small


def test_fuel_budget_aborts_runaway():
    rt = LocalRuntime(fuel_budget=200.0, enable_cache=False)

    def busy(self):
        for i in range(1000):
            self.set("v", i)

    t = ObjectType("Busy", fields=[ValueField("v")], methods=[method(busy)])
    rt.register_type(t)
    oid = rt.create_object("Busy")
    with pytest.raises(InvocationError, match="fuel"):
        rt.invoke(oid, "busy")


def test_costs_configurable():
    cheap = LocalRuntime(costs=OpCosts(kv_get=1.0, call_base=1.0), enable_cache=False)
    costly = LocalRuntime(costs=OpCosts(kv_get=500.0, call_base=1.0), enable_cache=False)

    def peek(self):
        return self.get("v")

    t = ObjectType("Peek", fields=[ValueField("v", default=1)], methods=[readonly_method(peek)])
    for rt in (cheap, costly):
        rt.register_type(t)
    cheap_fuel = cheap.invoke_detailed(cheap.create_object("Peek"), "peek").fuel_used
    costly_fuel = costly.invoke_detailed(costly.create_object("Peek"), "peek").fuel_used
    assert costly_fuel > cheap_fuel


# -- proxies ------------------------------------------------------------


def test_object_proxy_private_attribute_raises(runtime):
    def poke(self, other):
        proxy = self.get_object(other)
        return getattr(proxy, "_hidden", "no-access")

    t = ObjectType("Poker", fields=[], methods=[method(poke)])
    runtime.register_type(t)
    a = runtime.create_object("Poker")
    b = runtime.create_object("Counter")
    assert runtime.invoke(a, "poke", b) == "no-access"
