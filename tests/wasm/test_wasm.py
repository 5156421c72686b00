"""Unit tests for the sandbox contract: fuel and memory meters, method
tables, and guest calls through the runtime that owns them."""

import pytest

from repro.core import LocalRuntime, ObjectType, ValueField, method
from repro.core import keyspace
from repro.errors import (
    FuelExhausted,
    InvocationError,
    LinkError,
    MemoryLimitExceeded,
    Trap,
)
from repro.wasm import FuelMeter, GuestFunction, MemoryMeter, OpCosts


def add(ctx, a, b):
    return a + b


def boom(ctx):
    ctx.set("v", 1)
    raise ValueError("guest bug")


def touch(ctx, times):
    for _ in range(times):
        ctx.now()
    ctx.set("v", times)


def make_type(compute_fuel=0.0):
    return ObjectType(
        "Test",
        fields=[ValueField("v")],
        methods=[method(add), method(boom), method(touch, compute_fuel=compute_fuel)],
    )


def make_runtime(compute_fuel=0.0, **kwargs):
    runtime = LocalRuntime(enable_cache=False, **kwargs)
    runtime.register_type(make_type(compute_fuel))
    return runtime, runtime.create_object("Test")


def stored_v(runtime, oid):
    return runtime.storage.get(keyspace.value_key(oid, "v"))


# -- FuelMeter ---------------------------------------------------------


def test_fuel_counts_usage():
    meter = FuelMeter(budget=100)
    meter.consume(30)
    meter.consume(20)
    assert meter.used == 50


def test_fuel_exhaustion_traps():
    meter = FuelMeter(budget=10)
    with pytest.raises(FuelExhausted):
        meter.consume(11)


def test_unlimited_fuel_still_counts():
    meter = FuelMeter()
    meter.consume(1e9)
    assert meter.used == 1e9


def test_negative_fuel_rejected():
    with pytest.raises(ValueError):
        FuelMeter(budget=-1)
    with pytest.raises(ValueError):
        FuelMeter(budget=10).consume(-1)


def test_memory_limit_traps():
    meter = MemoryMeter(1024)
    meter.charge(1000)
    assert meter.used == 1000
    with pytest.raises(MemoryLimitExceeded):
        meter.charge(100)


def test_op_costs_payload_scaling():
    costs = OpCosts(bytes_per_unit=64)
    assert costs.payload(128) == 2.0
    assert costs.payload(0) == 0.0


# -- method tables -------------------------------------------------------


def test_compile_and_export():
    assert make_type().method_def("add").public


def test_missing_export_raises_link_error():
    with pytest.raises(LinkError, match="has no export 'nope'"):
        make_type().method_def("nope")


def test_duplicate_export_rejected():
    fn = GuestFunction("f", lambda ctx: None)
    with pytest.raises(LinkError, match="exports 'f' twice"):
        ObjectType("Dup", methods=[fn, fn])


def test_empty_module_rejected():
    with pytest.raises(LinkError, match="has no exports"):
        ObjectType("Empty", methods=[])


def test_function_without_parameters_rejected():
    with pytest.raises(LinkError):
        GuestFunction("bad", lambda: None)


def test_non_callable_rejected():
    with pytest.raises(LinkError):
        GuestFunction("bad", 42)  # type: ignore[arg-type]


# -- guest calls -----------------------------------------------------------


def test_call_returns_guest_value():
    runtime, oid = make_runtime()
    assert runtime.invoke(oid, "add", 2, 3) == 5


def test_guest_exception_becomes_trap():
    runtime, oid = make_runtime()
    with pytest.raises(InvocationError) as excinfo:
        runtime.invoke(oid, "boom")
    trap = excinfo.value.__cause__
    assert type(trap) is Trap
    assert str(trap) == "guest function Test.boom trapped: ValueError: guest bug"
    assert isinstance(trap.__cause__, ValueError)
    assert stored_v(runtime, oid) is None


def test_fuel_budget_enforced_during_guest_execution():
    runtime, oid = make_runtime(fuel_budget=100)
    with pytest.raises(InvocationError) as excinfo:
        runtime.invoke(oid, "touch", 1000)
    assert isinstance(excinfo.value.__cause__, FuelExhausted)
    assert stored_v(runtime, oid) is None


def test_compute_fuel_charged_on_entry():
    runtime, oid = make_runtime(compute_fuel=40.0)
    costs = runtime.costs
    result = runtime.invoke_detailed(oid, "touch", 3)
    value_bytes = len(runtime.storage.get(keyspace.value_key(oid, "v")))
    ops = 3 * costs.utility + costs.kv_put + costs.payload(value_bytes)
    assert result.fuel_used == costs.call_base + 40.0 + ops


def test_compute_fuel_exhaustion_commits_nothing():
    runtime, oid = make_runtime(compute_fuel=1_000.0, fuel_budget=500)
    with pytest.raises(InvocationError) as excinfo:
        runtime.invoke(oid, "touch", 0)
    assert isinstance(excinfo.value.__cause__, FuelExhausted)
    assert stored_v(runtime, oid) is None
    assert runtime.stats.commits == 0
    assert runtime.stats.aborts == 1
