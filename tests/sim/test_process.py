"""Unit tests for simulated processes."""

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import Simulation


def test_process_return_value_becomes_event_value():
    sim = Simulation()

    def body(sim):
        yield sim.timeout(1.0)
        return "result"

    proc = sim.process(body(sim))
    sim.run()
    assert proc.triggered and proc.ok
    assert proc.value == "result"


def test_process_exception_fails_completion_event():
    sim = Simulation()

    def body(sim):
        yield sim.timeout(1.0)
        raise KeyError("oops")

    proc = sim.process(body(sim))
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, KeyError)


def test_waiting_on_a_process_propagates_failure():
    sim = Simulation()
    caught = []

    def child(sim):
        yield sim.timeout(1.0)
        raise ValueError("inner")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as error:
            caught.append(str(error))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["inner"]


def test_interrupt_throws_processkilled():
    sim = Simulation()
    log = []

    def body(sim):
        try:
            yield sim.timeout(100.0)
        except ProcessKilled as kill:
            log.append(("killed", sim.now, kill.args[0]))

    proc = sim.process(body(sim))

    def killer(sim):
        yield sim.timeout(5.0)
        proc.interrupt("shutdown")

    sim.process(killer(sim))
    sim.run()
    assert log == [("killed", 5.0, "shutdown")]


def test_unhandled_interrupt_is_clean_cancellation():
    sim = Simulation()

    def body(sim):
        yield sim.timeout(100.0)

    proc = sim.process(body(sim))

    def killer(sim):
        yield sim.timeout(1.0)
        proc.interrupt()

    sim.process(killer(sim))
    sim.run()
    assert proc.triggered and proc.ok
    assert proc.value is None


def test_interrupt_after_completion_is_noop():
    sim = Simulation()

    def body(sim):
        yield sim.timeout(1.0)
        return 7

    proc = sim.process(body(sim))
    sim.run()
    proc.interrupt()
    sim.run()
    assert proc.value == 7


def test_yielding_non_event_fails_process():
    sim = Simulation()

    def body(sim):
        yield 42

    proc = sim.process(body(sim))
    sim.run()
    assert not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_non_generator_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_run_until_triggered_returns_value():
    sim = Simulation()

    def body(sim):
        yield sim.timeout(2.5)
        return "done"

    proc = sim.process(body(sim))
    assert sim.run_until_triggered(proc) == "done"
    assert sim.now == 2.5


def test_run_until_triggered_raises_failure():
    sim = Simulation()

    def body(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("bad")

    proc = sim.process(body(sim))
    with pytest.raises(RuntimeError):
        sim.run_until_triggered(proc)


def test_run_until_triggered_detects_deadlock():
    sim = Simulation()
    never = sim.event()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_triggered(never)


def test_run_until_limit_stops_the_clock():
    sim = Simulation()
    log = []

    def body(sim):
        while True:
            yield sim.timeout(10.0)
            log.append(sim.now)

    sim.process(body(sim))
    sim.run(until=35.0)
    assert log == [10.0, 20.0, 30.0]
    assert sim.now == 35.0


def test_a_finished_process_is_freed_by_reference_count():
    """The body's end drops the callbacks the process pre-bound to itself
    (a cycle while they stay), so no collector pass is needed."""
    import gc
    import weakref

    gc.collect()
    gc.disable()
    try:
        sim = Simulation()

        class Result:
            """Weakly referenceable stand-in for the slotted process that
            holds it as its value."""

        def body(sim):
            yield sim.timeout(1.0)
            return Result()

        process = sim.process(body(sim))
        sim.run()
        ref = weakref.ref(process.value)
        del process
        assert ref() is None
    finally:
        gc.enable()
