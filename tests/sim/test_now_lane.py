"""Regression tests for the zero-delay now lane and the run-loop merge.

The scheduler keeps two structures in one (time, seq) order: a heap for
future work and a FIFO deque for zero-delay work.  These tests pin the
ordering contract — callbacks execute in global (time, seq) order no
matter which lane they arrived through — and the peek-before-pop limit
behaviour of ``run_until_triggered``.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulation


def test_now_lane_and_heap_interleave_in_seq_order():
    """Zero-delay and delay-0.0 heap entries at one instant keep seq order."""
    sim = Simulation()
    order = []
    sim._schedule(0.0, lambda: order.append("heap-0"))
    sim._schedule_now(lambda: order.append("lane-1"))
    sim._schedule(0.0, lambda: order.append("heap-2"))
    sim._schedule_now(lambda: order.append("lane-3"))
    sim.run()
    assert order == ["heap-0", "lane-1", "heap-2", "lane-3"]


def test_now_lane_runs_before_future_heap_entries():
    sim = Simulation()
    order = []
    sim._schedule(5.0, lambda: order.append("later"))
    sim._schedule_now(lambda: order.append("now"))
    sim.run()
    assert order == ["now", "later"]


def test_now_lane_callbacks_scheduled_during_run_stay_fifo():
    """Lane entries appended mid-run land behind existing same-instant work."""
    sim = Simulation()
    order = []

    def first():
        order.append("first")
        sim._schedule_now(lambda: order.append("first-child"))

    sim._schedule_now(first)
    sim._schedule_now(lambda: order.append("second"))
    sim.run()
    assert order == ["first", "second", "first-child"]


def test_event_trigger_ordering_matches_single_heap_semantics():
    """Triggering events and timeouts at one instant dispatch in seq order."""
    sim = Simulation()
    order = []

    def waiter(name, event):
        yield event
        order.append(name)

    a = sim.event("a")
    b = sim.event("b")
    sim.process(waiter("a", a))
    sim.process(waiter("b", b))

    def firer():
        yield sim.timeout(1.0)
        b.succeed()
        a.succeed()

    sim.process(firer())
    sim.run()
    assert order == ["b", "a"]


def test_run_until_peeks_before_popping_the_limit_entry():
    """An over-limit entry stays queued; catching the error loses nothing."""
    sim = Simulation()
    done = sim.timeout(20.0)
    with pytest.raises(SimulationError, match="limit"):
        sim.run_until_triggered(done, limit=10.0)
    # The clock did not advance and the timeout is still pending.
    assert sim.now == 0.0
    assert not done.triggered
    # Resuming with a higher limit delivers the event at its original time.
    sim.run_until_triggered(done, limit=30.0)
    assert sim.now == 20.0


def test_run_until_limit_applies_to_now_lane_entries():
    sim = Simulation()

    def body():
        yield sim.timeout(50.0)

    process = sim.process(body())
    with pytest.raises(SimulationError, match="limit"):
        sim.run_until_triggered(process, limit=25.0)
    # The process start already ran (it is zero-delay, within the limit);
    # only the 50 ms timeout is still queued.
    assert sim.now == 0.0
    sim.run_until_triggered(process, limit=100.0)
    assert sim.now == 50.0


def test_bounded_run_checks_the_bound_only_when_the_clock_would_advance():
    """Same-instant work never trips the bound, however it is interleaved
    between the lane and the heap; the first later entry does."""
    sim = Simulation()
    order = []
    sim._schedule(5.0, lambda: sim._schedule_now(lambda: order.append("lane@5")))
    sim._schedule(5.0, lambda: order.append("heap@5"))
    sim._schedule(5.000001, lambda: order.append("late"))
    sim.run(until=5.0)
    assert order == ["heap@5", "lane@5"] and sim.now == 5.0
    sim.run()
    assert order == ["heap@5", "lane@5", "late"]


def test_bound_behind_the_clock_runs_nothing_not_even_the_now_lane():
    sim = Simulation()
    sim.run(until=10.0)
    ran = []
    sim._schedule_now(lambda: ran.append("lane"))
    sim._schedule(0.0, lambda: ran.append("heap"))
    sim.run(until=5.0)
    assert ran == [] and sim.now == 10.0
    with pytest.raises(SimulationError, match="limit"):
        sim.run_until_triggered(sim.event(), limit=5.0)
    assert ran == []
    sim.run()
    assert ran == ["lane", "heap"]


def test_events_scheduled_counts_both_lanes():
    sim = Simulation()
    before = sim.events_scheduled
    sim._schedule_now(lambda: None)
    sim._schedule(1.0, lambda: None)
    assert sim.events_scheduled == before + 2
    sim.run()
    assert sim.events_scheduled == before + 2
