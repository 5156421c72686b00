"""Unit tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulation


def test_timeout_advances_clock():
    sim = Simulation()
    fired = []

    def body(sim):
        yield sim.timeout(5.0)
        fired.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert fired == [5.0]


def test_timeout_carries_value():
    sim = Simulation()
    seen = []

    def body(sim):
        value = yield sim.timeout(1.0, value="payload")
        seen.append(value)

    sim.process(body(sim))
    sim.run()
    assert seen == ["payload"]


def test_event_succeed_wakes_waiter():
    sim = Simulation()
    gate = sim.event()
    order = []

    def waiter(sim):
        value = yield gate
        order.append(("woke", value, sim.now))

    def trigger(sim):
        yield sim.timeout(3.0)
        gate.succeed(42)
        order.append(("triggered", sim.now))

    sim.process(waiter(sim))
    sim.process(trigger(sim))
    sim.run()
    assert order == [("triggered", 3.0), ("woke", 42, 3.0)]


def test_event_cannot_trigger_twice():
    sim = Simulation()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_failed_event_raises_in_process():
    sim = Simulation()
    gate = sim.event()
    caught = []

    def body(sim):
        try:
            yield gate
        except ValueError as error:
            caught.append(str(error))

    sim.process(body(sim))
    gate.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_value_before_trigger_raises():
    sim = Simulation()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_all_of_collects_every_value():
    sim = Simulation()
    results = []

    def body(sim):
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(2.0, value="b")
        values = yield sim.all_of([a, b])
        results.append(sorted(values.values()))
        results.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert results == [["a", "b"], 2.0]


def test_all_of_empty_succeeds_immediately():
    sim = Simulation()
    done = []

    def body(sim):
        value = yield sim.all_of([])
        done.append(value)

    sim.process(body(sim))
    sim.run()
    assert done == [{}]


def test_all_of_fails_fast_on_child_failure():
    sim = Simulation()
    gate = sim.event()
    caught = []

    def body(sim):
        try:
            yield sim.all_of([gate, sim.timeout(10.0)])
        except RuntimeError:
            caught.append(sim.now)

    sim.process(body(sim))
    gate.fail(RuntimeError("child failed"))
    sim.run()
    assert caught == [0.0]


def test_all_of_counts_a_repeated_child_once():
    sim = Simulation()
    child = sim.timeout(1.0, value="v")
    other = sim.timeout(2.0, value="w")
    twice = sim.all_of([child, child])
    mixed = sim.all_of([child, other, child])
    sim.run()
    assert twice.triggered and twice.value == {child: "v"}
    assert mixed.triggered and mixed.value == {child: "v", other: "w"}


def test_any_of_returns_first():
    sim = Simulation()
    results = []

    def body(sim):
        slow = sim.timeout(10.0, value="slow")
        fast = sim.timeout(1.0, value="fast")
        values = yield sim.any_of([slow, fast])
        results.append(list(values.values()))
        results.append(sim.now)

    sim.process(body(sim))
    sim.run()
    assert results == [["fast"], 1.0]


def test_callback_on_already_triggered_event_runs():
    sim = Simulation()
    event = sim.event()
    event.succeed("x")
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["x"]
