"""The pluggable SchedulerPolicy seam (PR 10).

The contract: with no policy (or the default FifoPolicy) the simulator
dispatches in global (time, seq) order — byte-identical to the historical
FIFO drain — while a custom policy may reorder *same-instant* entries,
ask for a fresh candidate collection (RECOLLECT) after mutating state,
and is pinned for the duration of a run.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import RECOLLECT, FifoPolicy, SchedulerPolicy, Simulation


def _trace_workload(sim, order):
    """A mix of lane/heap/future entries that is sensitive to ordering."""
    sim._schedule(0.0, lambda: order.append("heap-0"))
    sim._schedule_now(lambda: order.append("lane-1"))
    sim._schedule(0.0, lambda: order.append("heap-2"))
    sim._schedule(3.0, lambda: order.append("future-3"))
    sim._schedule_now(lambda: order.append("lane-4"))


FIFO_ORDER = ["heap-0", "lane-1", "heap-2", "lane-4", "future-3"]


def test_fifo_policy_matches_default_run():
    default_order, policy_order = [], []
    sim = Simulation()
    _trace_workload(sim, default_order)
    sim.run()

    sim = Simulation()
    sim.set_policy(FifoPolicy())
    _trace_workload(sim, policy_order)
    sim.run()

    assert default_order == policy_order == FIFO_ORDER


def test_fifo_policy_matches_bounded_and_triggered_runs():
    for limit in (None, 10.0):
        order = []
        sim = Simulation()
        sim.set_policy(FifoPolicy())
        _trace_workload(sim, order)
        if limit is None:
            sim.run()
        else:
            sim.run(until=limit)
        assert order == FIFO_ORDER

    order = []
    sim = Simulation()
    sim.set_policy(FifoPolicy())
    _trace_workload(sim, order)
    done = sim.event()
    sim._schedule(5.0, lambda: done.succeed())
    sim.run_until_triggered(done, limit=20.0)
    assert order == FIFO_ORDER


def test_policy_sees_only_same_instant_candidates():
    """Entries at a later instant never compete with the earliest ones."""
    seen = []

    class Spy(SchedulerPolicy):
        def choose(self, now, candidates):
            seen.append((now, len(candidates)))
            return 0

    sim = Simulation()
    sim.set_policy(Spy())
    sim._schedule(0.0, lambda: None)
    sim._schedule_now(lambda: None)
    sim._schedule(2.0, lambda: None)
    sim.run()
    assert seen == [(0.0, 2), (0.0, 1), (2.0, 1)]


def test_policy_can_reorder_same_instant_entries():
    order = []

    class Lifo(SchedulerPolicy):
        def choose(self, now, candidates):
            return len(candidates) - 1

    sim = Simulation()
    sim.set_policy(Lifo())
    for name in ("a", "b", "c"):
        sim._schedule(0.0, lambda name=name: order.append(name))
    sim.run()
    assert order == ["c", "b", "a"]


def test_policy_reorder_preserves_time_ordering_across_instants():
    order = []

    class Lifo(SchedulerPolicy):
        def choose(self, now, candidates):
            return len(candidates) - 1

    sim = Simulation()
    sim.set_policy(Lifo())
    sim._schedule(1.0, lambda: order.append("t1-a"))
    sim._schedule(1.0, lambda: order.append("t1-b"))
    sim._schedule(0.0, lambda: order.append("t0"))
    sim.run()
    assert order == ["t0", "t1-b", "t1-a"]


def test_recollect_refreshes_candidates():
    """A policy may mutate state and ask for a fresh candidate set."""
    order = []

    class CrashThenFifo(SchedulerPolicy):
        def __init__(self, sim):
            self.sim = sim
            self.injected = False

        def choose(self, now, candidates):
            if not self.injected:
                self.injected = True
                # same-instant injection must appear in the next collection
                self.sim._schedule(now, lambda: order.append("injected"))
                return RECOLLECT
            return len(candidates) - 1  # injected entry has the top seq

    sim = Simulation()
    policy = CrashThenFifo(sim)
    sim.set_policy(policy)
    sim._schedule(0.0, lambda: order.append("original"))
    sim.run()
    assert order == ["injected", "original"]


def test_set_policy_rejected_mid_run():
    sim = Simulation()

    def proc():
        with pytest.raises(SimulationError, match="mid-run"):
            sim.set_policy(FifoPolicy())
        yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()


def test_policy_bounded_run_raises_without_popping():
    """The PR 3 peek contract holds for the policy loop too."""
    sim = Simulation()
    sim.set_policy(FifoPolicy())
    fired = []
    sim._schedule(10.0, lambda: fired.append(True))
    done = sim.event()
    with pytest.raises(SimulationError, match="time limit"):
        sim.run_until_triggered(done, limit=5.0)
    assert not fired and (len(sim._queue) + len(sim._now_lane)) == 1
    # the entry is still intact and runs on a later, wider run
    sim.run(until=15.0)
    assert fired == [True]


def test_policy_run_until_deadlock_raises():
    sim = Simulation()
    sim.set_policy(FifoPolicy())
    sim._schedule(1.0, lambda: None)
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_triggered(sim.event())
