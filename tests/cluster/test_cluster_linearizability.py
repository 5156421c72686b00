"""Invocation linearizability of the cluster, checked with Wing & Gong.

Concurrent clients hammer counter objects; every client records its
invocations, with their real (simulated) time intervals, into one
``HistoryRecorder``, and the checker must find a legal linearisation.
This is the paper's §3.1 guarantee made mechanically checkable.
"""

import pytest

from repro.core.linearizability import HistoryRecorder, check_linearizable
from repro.errors import ReproError

from tests.cluster.conftest import build_cluster


def counter_model(initial=0):
    """Sequential spec for the Counter type's increment/read methods."""

    state0 = initial

    def apply(state, op):
        if op.method == "increment":
            new_state = state + op.args[0]
            return op.result == new_state, new_state
        if op.method == "read":
            return op.result == state, state
        raise ReproError(f"unexpected method {op.method}")

    return state0, apply


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_concurrent_counter_history_linearizable(seed):
    sim, cluster = build_cluster(seed=seed)
    oid = cluster.create_object("Counter")
    history = HistoryRecorder()
    clients = [cluster.client(f"c{i}", recorder=history) for i in range(6)]

    def client_load(client, operations):
        rng = sim.rng(f"load.{client.name}")
        for _ in range(operations):
            yield sim.timeout(rng.uniform(0, 1.0))
            if rng.random() < 0.5:
                yield from client.invoke(oid, "increment", 1)
            else:
                yield from client.invoke(oid, "read")

    processes = [sim.process(client_load(client, 3)) for client in clients]
    sim.run_until_triggered(sim.all_of(processes), limit=120_000)

    initial, apply_fn = counter_model()
    assert len(history) == 18
    assert check_linearizable(history.invocations(), initial, apply_fn)


def test_replica_reads_are_linearizable_with_writer(seed=5):
    sim, cluster = build_cluster(seed=seed)
    oid = cluster.create_object("Counter")
    history = HistoryRecorder()
    writer = cluster.client("writer", recorder=history)
    readers = [cluster.client(f"r{i}", recorder=history) for i in range(4)]

    def write_load():
        for _ in range(4):
            yield from writer.invoke(oid, "increment", 1)
            yield sim.timeout(0.3)

    def read_load(client):
        rng = sim.rng(f"load.{client.name}")
        for _ in range(4):
            yield sim.timeout(rng.uniform(0, 0.8))
            yield from client.invoke(oid, "read")

    processes = [sim.process(write_load())] + [sim.process(read_load(r)) for r in readers]
    sim.run_until_triggered(sim.all_of(processes), limit=120_000)

    initial, apply_fn = counter_model()
    assert len(history) == 20
    assert check_linearizable(history.invocations(), initial, apply_fn)


def test_linearizability_holds_across_failover():
    sim, cluster = build_cluster(seed=9)
    oid = cluster.create_object("Counter")
    history = HistoryRecorder()
    client = cluster.client("c0", recorder=history)

    def load():
        for round_number in range(6):
            if round_number == 3:
                cluster.crash_node("store-0")
            yield from client.invoke(oid, "increment", 1)
            yield from client.invoke(oid, "read")

    process = sim.process(load())
    sim.run_until_triggered(process, limit=120_000)
    initial, apply_fn = counter_model()
    assert len(history) == 12
    assert check_linearizable(history.invocations(), initial, apply_fn)
