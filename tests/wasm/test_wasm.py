"""Unit tests for the wasm-like runtime: fuel, modules, instances."""

import pytest

from repro.errors import FuelExhausted, LinkError, MemoryLimitExceeded, Trap, WasmError
from repro.wasm import FuelMeter, GuestFunction, Instance, Module, OpCosts


def make_module(**kwargs):
    def add(host, a, b):
        return a + b

    def boom(host):
        raise ValueError("guest bug")

    def burn(host, units):
        host.fuel.consume(units)

    functions = [
        GuestFunction("add", add),
        GuestFunction("boom", boom),
        GuestFunction("burn", burn, **kwargs),
    ]
    return Module.compile("test", functions)


class FuelHost:
    """Minimal host exposing the instance's fuel meter to the guest."""

    def __init__(self):
        self.fuel = None


def make_instance(module=None, **kwargs):
    module = module or make_module()
    host = FuelHost()
    instance = Instance(module, host, **kwargs)
    host.fuel = instance.fuel
    return instance


# -- FuelMeter ---------------------------------------------------------


def test_fuel_counts_usage():
    meter = FuelMeter(budget=100)
    meter.consume(30)
    meter.consume(20)
    assert meter.used == 50
    assert meter.remaining == 50


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


# -- Module --------------------------------------------------------------


def test_compile_and_export():
    module = make_module()
    assert module.export("add").public


def test_missing_export_raises_link_error():
    module = make_module()
    with pytest.raises(LinkError):
        module.export("nope")


def test_duplicate_export_rejected():
    fn = GuestFunction("f", lambda host: None)
    with pytest.raises(LinkError):
        Module.compile("dup", [fn, fn])


def test_empty_module_rejected():
    with pytest.raises(LinkError):
        Module.compile("empty", [])


def test_function_without_parameters_rejected():
    with pytest.raises(LinkError):
        GuestFunction("bad", lambda: None)


def test_non_callable_rejected():
    with pytest.raises(LinkError):
        GuestFunction("bad", 42)  # type: ignore[arg-type]


def test_code_size_positive():
    assert make_module().code_size > 0


# -- Instance ------------------------------------------------------------


def test_call_returns_guest_value():
    assert make_instance().call("add", 2, 3) == 5


def test_guest_exception_becomes_trap():
    with pytest.raises(Trap) as excinfo:
        make_instance().call("boom")
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_instance_is_single_use():
    instance = make_instance()
    instance.call("add", 1, 1)
    with pytest.raises(WasmError):
        instance.call("add", 1, 1)


def test_fuel_budget_enforced_during_guest_execution():
    instance = make_instance(fuel=FuelMeter(budget=100))
    with pytest.raises(FuelExhausted):
        instance.call("burn", 1000)


def test_compute_fuel_charged_on_entry():
    module = make_module(compute_fuel=40.0)
    instance = make_instance(module, fuel=FuelMeter(budget=100))
    instance.call("burn", 10)
    assert instance.fuel.used == 50.0


def test_memory_limit_traps():
    instance = make_instance(memory_limit_bytes=1024)
    instance.memory.charge(1000)
    assert instance.memory.used == 1000
    with pytest.raises(MemoryLimitExceeded):
        instance.memory.charge(100)


def test_op_costs_payload_scaling():
    costs = OpCosts(bytes_per_unit=64)
    assert costs.payload(128) == 2.0
    assert costs.payload(0) == 0.0
