"""Shared fixtures for cluster tests."""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.cluster.replication import ReplicationPipeline
from repro.core import CollectionField, ObjectType, ValueField, method, readonly_method
from repro.kvstore.batch import Round, WriteBatch
from repro.sim import Simulation


def counter_type():
    def increment(self, by=1):
        self.set("count", (self.get("count") or 0) + by)
        return self.get("count")

    def read(self):
        return self.get("count") or 0

    def increment_remote(self, other_oid, by):
        self.set("count", (self.get("count") or 0) + by)
        return self.get_object(other_oid).increment(by)

    return ObjectType(
        "Counter",
        fields=[ValueField("count", default=0)],
        methods=[method(increment), readonly_method(read), method(increment_remote)],
    )


def notebook_type():
    def add(self, text):
        return self.collection("notes").push(text)

    def listing(self, limit=None):
        return [v for _k, v in self.collection("notes").items(limit=limit)]

    return ObjectType(
        "Notebook",
        fields=[CollectionField("notes")],
        methods=[method(add), readonly_method(listing)],
    )


def build_cluster(seed=1, **config_kwargs):
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, ClusterConfig(seed=seed, **config_kwargs))
    cluster.register_type(counter_type())
    cluster.register_type(notebook_type())
    cluster.start()
    return sim, cluster


@pytest.fixture()
def small_cluster():
    sim, cluster = build_cluster()
    return sim, cluster


def run_ops(sim, cluster, ops, limit_ms=120_000):
    """Run client operations concurrently; returns list of results.

    ``ops`` is a list of (client, oid, method, args) tuples; each runs in
    its own simulation process starting at time ~now.
    """
    processes = []
    for client, oid, method_name, args in ops:
        processes.append(sim.process(client.invoke(oid, method_name, *args)))
    gate = sim.all_of(processes)
    values = sim.run_until_triggered(gate, limit=sim.now + limit_ms)
    return [values[p] for p in processes]


def tagged(tag: bytes) -> Round:
    """A one-put round standing for a committed write set named ``tag``."""
    return Round.of([WriteBatch().put(tag, b"")])


def tags(rounds) -> list[bytes]:
    """The tags of :func:`tagged` rounds, in order."""
    return [round_.objects[0] for round_ in rounds]


class PipelineHarness:
    """One shard's :class:`ReplicationPipeline` with a recording
    transport and a mutable backup list."""

    def __init__(self, backups=("b1", "b2"), **kwargs):
        self.sim = Simulation(seed=7)
        self.backups = list(backups)
        self.frames = []  # (sim_now, targets, first_sequence, rounds)
        self.pipeline = ReplicationPipeline(
            self.sim,
            0,
            send_frame=self._record,
            backups_fn=lambda: list(self.backups),
            **kwargs,
        )

    def _record(self, targets, first, rounds):
        self.frames.append((self.sim.now, list(targets), first, list(rounds)))

    def submit_rounds(self, count):
        return [self.pipeline.submit(tagged(b"x")) for _ in range(count)]

    def ack_all(self, through):
        for backup in self.backups:
            self.pipeline.on_ack(backup, through)
