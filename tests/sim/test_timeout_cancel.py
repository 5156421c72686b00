"""Cancellable timeouts and the compacting heap (DESIGN.md §5p).

The contract: a cancelled timeout never triggers and drops its listeners
at once; its scheduler entry keeps its ``(when, seq)`` place as a no-op,
so every live entry runs exactly where and when it would have; and the
heap is rebuilt in place, without the cancelled entries, once they pass
``CANCELLED_TIMEOUTS_FLOOR`` and half the heap.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProcessKilled
from repro.sim import RECOLLECT, FifoPolicy, SchedulerPolicy, Simulation
from repro.sim import core
from repro.sim.core import CANCELLED_TIMEOUTS_FLOOR


def _listen(event, log, label):
    event.add_callback(lambda e: log.append((e._sim.now, label, e.value)))


# -- cancel ------------------------------------------------------------------


def test_cancelled_timeout_never_fires_and_drops_its_listeners():
    sim = Simulation()
    log = []
    timer = sim.timeout(5.0, value="late")
    _listen(timer, log, "timer")
    timer.cancel()
    assert timer.cancelled and not timer.triggered and timer._callbacks == []
    # the entry stays where it was, a no-op that still moves the clock
    assert sim.pending == 1 and sim.events_scheduled == 1
    assert sim.run() == 5.0
    assert log == [] and not timer.triggered
    assert sim.pending == 0 and sim._cancelled == 0


def test_cancel_is_idempotent():
    sim = Simulation()
    timer = sim.timeout(5.0)
    timer.cancel()
    timer.cancel()
    assert sim._cancelled == 1
    sim.run()
    assert sim._cancelled == 0


def test_cancel_after_firing_is_a_noop():
    sim = Simulation()
    timer = sim.timeout(1.0, value="v")
    sim.run()
    timer.cancel()
    assert timer.triggered and timer.value == "v" and not timer.cancelled
    assert sim._cancelled == 0


def test_cancel_from_inside_the_timeouts_own_listener():
    sim = Simulation()
    log = []
    timer = sim.timeout(1.0, value="v")
    timer.add_callback(lambda e: e.cancel())
    _listen(timer, log, "second")
    sim.run()
    assert log == [(1.0, "second", "v")] and not timer.cancelled
    assert sim._cancelled == 0


def test_live_entries_keep_their_order_around_a_cancelled_one():
    sim = Simulation()
    log = []
    timers = [sim.timeout(1.0, value=index) for index in range(5)]
    for index, timer in enumerate(timers):
        _listen(timer, log, index)
    timers[2].cancel()
    sim.run()
    assert log == [(1.0, index, index) for index in (0, 1, 3, 4)]


class _CancelAtChoice(SchedulerPolicy):
    """Cancels ``victim`` at the first choice point, while it sits among
    the candidates the drain holds outside the heap."""

    def __init__(self, victim, recollect):
        self.victim = victim
        self.recollect = recollect
        self.seen = []

    def choose(self, now, candidates):
        self.seen.append(len(candidates))
        if not self.victim.cancelled:
            self.victim.cancel()
            if self.recollect:
                return RECOLLECT
        return 0


@pytest.mark.parametrize("recollect", [False, True])
def test_cancel_under_a_policy_while_the_entry_is_a_candidate(recollect):
    sim = Simulation()
    log = []
    first = sim.timeout(1.0, value="first")
    victim = sim.timeout(1.0, value="victim")
    last = sim.timeout(1.0, value="last")
    for label, timer in (("first", first), ("victim", victim), ("last", last)):
        _listen(timer, log, label)
    policy = _CancelAtChoice(victim, recollect)
    sim.set_policy(policy)
    sim.run()
    # the cancelled entry was pushed back and stayed a (no-op) candidate
    assert policy.seen[0] == 3 and 2 in policy.seen
    assert log == [(1.0, "first", "first"), (1.0, "last", "last")]
    assert sim._cancelled == 0 and sim.pending == 0


# -- the rebuild -------------------------------------------------------------


def _arm_rebuild(sim, log):
    """Deadlines at 1,000 ms, all cancelled from one entry at 1 ms — past
    the floor and half the heap, so the rebuild happens inside the drain —
    and a live entry at 2 ms that has to survive it."""
    timers = [sim.timeout(1000.0) for _ in range(CANCELLED_TIMEOUTS_FLOOR + 1)]
    canceller = sim.timeout(1.0)
    canceller.add_callback(lambda e: [timer.cancel() for timer in timers])
    _listen(sim.timeout(2.0, value="survivor"), log, "survivor")


def _drain_bounded(sim):
    return sim.run(until=2.0)


def _drain_policy(sim):
    sim.set_policy(FifoPolicy())
    return sim.run()


@pytest.mark.parametrize("drain", [_drain_bounded, _drain_policy])
def test_rebuild_during_a_drain_mutates_the_aliased_list_in_place(drain):
    sim = Simulation()
    log = []
    _arm_rebuild(sim, log)
    queue = sim._queue
    scheduled = sim.events_scheduled
    # No entry is left at 1,000 ms, so the clock stops at the survivor.
    assert drain(sim) == 2.0
    assert sim._queue is queue and queue == []
    assert log == [(2.0, "survivor", "survivor")]
    assert sim._cancelled == 0
    assert sim.events_scheduled == scheduled


def test_below_the_floor_cancelled_entries_stay_and_move_the_clock():
    sim = Simulation()
    timers = [sim.timeout(1000.0) for _ in range(CANCELLED_TIMEOUTS_FLOOR)]
    for timer in timers:
        timer.cancel()
    assert len(sim._queue) == CANCELLED_TIMEOUTS_FLOOR
    assert sim.run() == 1000.0


def test_a_run_that_pops_the_live_entries_leaves_the_heap_compacted():
    sim = Simulation()
    count = CANCELLED_TIMEOUTS_FLOOR + 1
    live = [sim.timeout(1.0) for _ in range(count)]
    for timer in [sim.timeout(1000.0) for _ in range(count)]:
        timer.cancel()
    # exactly half the heap: not rebuilt yet
    assert len(sim._queue) == 2 * count
    sim.run(until=2.0)
    assert all(timer.triggered for timer in live)
    assert sim._queue == [] and sim._cancelled == 0


# -- the deadline helper -----------------------------------------------------


def test_wait_retires_the_deadline_when_the_event_wins():
    sim = Simulation()
    signal = sim.event()
    woke = []

    def waiter():
        yield from sim.wait(signal, 1000.0)
        woke.append((sim.now, signal.triggered))

    sim.process(waiter())
    sim.timeout(0.5).add_callback(lambda e: signal.succeed())
    sim.run(until=1.0)
    assert woke == [(0.5, True)]
    (entry,) = sim._queue
    assert entry[2].cancelled and entry[2]._callbacks == []


def test_wait_returns_at_the_deadline_when_the_event_does_not_come():
    sim = Simulation()
    signal = sim.event()
    woke = []

    def waiter():
        yield from sim.wait(signal, 10.0)
        woke.append((sim.now, signal.triggered))

    sim.process(waiter())
    sim.run()
    assert woke == [(10.0, False)] and sim._cancelled == 0


def test_the_loser_of_a_wait_is_freed_by_reference_count():
    """A signal that lost to its deadline still lists the condition as a
    listener; the condition keeps no reference back, so neither needs the
    cycle collector."""
    import gc
    import weakref

    refs = []
    gc.collect()
    gc.disable()
    try:
        sim = Simulation()

        class Listener:
            """Weakly referenceable stand-in for the slotted signal that
            holds it in its listener list."""

            def __call__(self, event):
                raise AssertionError("the signal never triggers")

        def waiter():
            signal = sim.event()
            listener = Listener()
            refs.append(weakref.ref(listener))
            signal.add_callback(listener)
            del listener
            yield from sim.wait(signal, 10.0)

        sim.process(waiter())
        sim.run()
        assert sim.now == 10.0 and refs[0]() is None
    finally:
        gc.enable()


def test_wait_raises_the_events_failure():
    sim = Simulation()
    signal = sim.event()
    caught = []

    def waiter():
        try:
            yield from sim.wait(signal, 10.0)
        except ValueError as error:
            caught.append(str(error))

    sim.process(waiter())
    signal.fail(ValueError("boom"))
    sim.run(until=1.0)
    assert caught == ["boom"] and sim._cancelled == 1


@pytest.mark.parametrize("handles_kill", [False, True])
def test_interrupting_a_process_parked_in_wait_retires_its_timer(handles_kill):
    sim = Simulation()
    signal = sim.event()
    seen = []

    def waiter():
        try:
            yield from sim.wait(signal, 1000.0)
        except ProcessKilled:
            if not handles_kill:
                raise
            seen.append("killed")

    process = sim.process(waiter())
    sim.run(until=1.0)
    process.interrupt("test")
    sim.run(until=2.0)
    assert process.triggered and seen == (["killed"] if handles_kill else [])
    (entry,) = sim._queue
    assert entry[2].cancelled and sim._cancelled == 1


@pytest.mark.parametrize("waiters, rounds", [(1, 1), (3, 7), (10, 100), (50, 20)])
def test_deadline_waits_do_not_carry_the_deadlines_they_beat(waiters, rounds):
    """Every wait beats its 1,000 ms deadline, the shape of an RPC reply
    wait: ``waiters * rounds`` deadlines are set and none is reached, in
    0.5 ms rounds that end long before the first would have fired."""
    sim = Simulation(seed=7)
    peak = 0

    def waiter(index: int):
        nonlocal peak
        for _ in range(rounds):
            reply = sim.event()
            sim.timeout(0.5 + index * 1e-4).add_callback(
                lambda _timer, reply=reply: reply.succeed()
            )
            yield from sim.wait(reply, 1_000.0)
            if index == 0:
                peak = max(peak, sim.pending)

    gate = sim.all_of([sim.process(waiter(index)) for index in range(waiters)])
    sim.run_until_triggered(gate, limit=float("inf"))
    # per wait: the trigger, the deadline, the signal's and the condition's
    # wake-up; per waiter: its start and its end (the gate listens)
    assert sim.events_scheduled == 4 * waiters * rounds + 2 * waiters
    # Each waiter has at most a trigger and a deadline in the heap and two
    # wake-ups in the now lane: the heap stays within floor + 2 x live,
    # where one deadline per wait ever made would be waiters x rounds.
    assert max(peak, sim.pending) <= CANCELLED_TIMEOUTS_FLOOR + 6 * waiters


# -- model test --------------------------------------------------------------

_TIMEOUT = st.tuples(st.just("timeout"), st.integers(0, 40))
# counted back from the newest timeout, which is the likeliest to be pending
_CANCEL = st.tuples(st.just("cancel"), st.integers(0, 8))
# Weighted towards creating and cancelling, so that most examples push
# the cancelled entries past the (lowered) floor and rebuild the heap.
_OPS = st.lists(
    st.one_of(
        _TIMEOUT,
        _TIMEOUT,
        _CANCEL,
        _CANCEL,
        _CANCEL,
        st.tuples(st.just("event"), st.just(0)),
        st.tuples(st.just("succeed"), st.integers(0, 10_000)),
        st.tuples(st.just("run"), st.integers(0, 25)),
    ),
    min_size=30,
    max_size=150,
)

_SMALL_FLOOR = 2


def _play(ops, honour_cancel):
    """Run ``ops`` on a simulation beside a sorted-list model of it.

    Returns what the simulation's listeners logged, what the model says
    they should have logged, and the labels of the timeouts cancelled
    while still pending.  Every scheduler entry in the model is a
    ``(when, seq, label)`` row; a run fires the rows it reaches in order.
    """
    sim = Simulation()
    log, expected, cancelled = [], [], set()
    timers, events = [], []
    model = []  # sorted (when, seq, label, is_timeout)
    seq = 0
    for kind, arg in ops:
        if kind == "timeout":
            label = f"t{len(timers)}"
            timer = sim.timeout(arg / 10.0, value=label)
            _listen(timer, log, label)
            timers.append(timer)
            seq += 1
            model.append((sim.now + arg / 10.0, seq, label, True))
            model.sort()
        elif kind == "cancel" and timers:
            index = len(timers) - 1 - arg % len(timers)
            row = next((r for r in model if r[2] == f"t{index}"), None)
            if row is not None:
                cancelled.add(row[2])
                if honour_cancel:
                    model.remove(row)
            if honour_cancel:
                timers[index].cancel()
        elif kind == "event":
            label = f"e{len(events)}"
            event = sim.event()
            _listen(event, log, label)
            events.append(event)
        elif kind == "succeed" and events:
            index = arg % len(events)
            if not events[index].triggered:
                events[index].succeed(f"e{index}")
                seq += 1
                model.append((sim.now, seq, f"e{index}", False))
                model.sort()
        elif kind == "run":
            until = sim.now + arg / 10.0
            assert sim.run(until=until) == until
            while model and model[0][0] <= until:
                when, _seq, label, _is_timeout = model.pop(0)
                expected.append((when, label, label))
        if honour_cancel:
            live = sum(1 for row in model if row[3])
            assert len(sim._queue) <= _SMALL_FLOOR + 2 * live
    return log, expected, cancelled


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_live_timeouts_fire_as_if_nothing_had_been_cancelled(ops):
    with mock.patch.object(core, "CANCELLED_TIMEOUTS_FLOOR", _SMALL_FLOOR):
        log, expected, cancelled = _play(ops, honour_cancel=True)
        reference, reference_expected, _ = _play(ops, honour_cancel=False)
    assert log == expected
    assert reference == reference_expected
    assert log == [row for row in reference if row[1] not in cancelled]
