"""Unit tests for the per-object lock table."""

import pytest

from repro.cluster.scheduler import ObjectLockTable
from repro.errors import SimulationError
from repro.sim import Simulation


def test_uncontended_acquire_is_immediate():
    sim = Simulation()
    locks = ObjectLockTable(sim)
    event = locks.acquire("obj")
    sim.run()
    assert event.triggered and event.ok
    assert locks.is_locked("obj")


def test_same_object_serialises():
    sim = Simulation()
    locks = ObjectLockTable(sim)
    order = []

    def worker(name, hold_ms):
        yield locks.acquire("obj")
        order.append((name, "in", sim.now))
        yield sim.timeout(hold_ms)
        order.append((name, "out", sim.now))
        locks.release("obj")

    sim.process(worker("a", 5))
    sim.process(worker("b", 5))
    sim.run()
    assert order == [("a", "in", 0.0), ("a", "out", 5.0), ("b", "in", 5.0), ("b", "out", 10.0)]


def test_different_objects_run_concurrently():
    sim = Simulation()
    locks = ObjectLockTable(sim)
    ends = []

    def worker(oid):
        yield locks.acquire(oid)
        yield sim.timeout(5)
        locks.release(oid)
        ends.append(sim.now)

    sim.process(worker("x"))
    sim.process(worker("y"))
    sim.run()
    assert ends == [5.0, 5.0]


def test_fifo_ordering():
    sim = Simulation()
    locks = ObjectLockTable(sim)
    granted = []

    def worker(name, start_delay):
        yield sim.timeout(start_delay)
        yield locks.acquire("obj")
        granted.append(name)
        yield sim.timeout(10)
        locks.release("obj")

    for index, name in enumerate(["first", "second", "third"]):
        sim.process(worker(name, index + 1))
    sim.run()
    assert granted == ["first", "second", "third"]


def test_release_unheld_raises():
    sim = Simulation()
    locks = ObjectLockTable(sim)
    with pytest.raises(SimulationError):
        locks.release("never")


def test_stats_track_contention():
    sim = Simulation()
    locks = ObjectLockTable(sim)

    def worker():
        yield locks.acquire("obj")
        yield sim.timeout(1)
        locks.release("obj")

    for _ in range(3):
        sim.process(worker())
    sim.run()
    assert locks.stats.acquisitions == 3
    assert locks.stats.contentions == 2
    assert locks.stats.max_queue_length >= 1
    assert locks.queue_length("obj") == 0


def test_max_queue_length_is_the_high_water_mark():
    from repro.obs.registry import MetricsRegistry

    sim = Simulation()
    registry = MetricsRegistry()
    labels = {"node": "store-0"}
    locks = ObjectLockTable(sim, registry=registry, labels=labels)

    def worker():
        yield locks.acquire("obj")
        yield sim.timeout(1)
        locks.release("obj")

    def late_worker():
        yield sim.timeout(10)  # after the pile-up drains: uncontended
        yield locks.acquire("obj")
        locks.release("obj")

    for _ in range(3):
        sim.process(worker())
    sim.process(late_worker())
    sim.run()

    # Two waiters queued behind the first holder; the later uncontended
    # acquire leaves the mark where it was.
    assert locks.stats.max_queue_length == 2
    assert registry.get("scheduler_max_queue_length", labels).value == 2
