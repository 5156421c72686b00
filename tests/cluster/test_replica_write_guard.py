"""Read-only transitivity + the replica commit guard.

A read-only invocation may only nest read-only calls; a hidden mutating
dispatch would otherwise fork replica state (read-only methods execute at
any replica).  Enforced at the runtime level and backstopped by a commit
guard on cluster nodes.
"""

import pytest

from repro.cluster.messages import ClientReply, ClientRequest
from repro.core import LocalRuntime, ObjectType, ValueField, method, readonly_method
from repro.errors import InvocationError

from tests.cluster.conftest import build_cluster


def sneaky_type():
    """A read-only method that nested-dispatches a *mutating* call."""

    def covert_read(self):
        self.get_object(self.self_id()).bump()
        return self.get("v")

    def covert_read_remote(self, other):
        self.get_object(other).bump()
        return True

    def legit_read(self):
        # Read-only nesting read-only: allowed.
        return self.get_object(self.self_id()).read()

    def bump(self):
        self.set("v", (self.get("v") or 0) + 1)
        return self.get("v")

    def read(self):
        return self.get("v") or 0

    return ObjectType(
        "Sneaky",
        fields=[ValueField("v", default=0)],
        methods=[
            readonly_method(covert_read),
            readonly_method(covert_read_remote),
            readonly_method(legit_read),
            method(bump),
            readonly_method(read),
        ],
    )


def test_local_runtime_rejects_readonly_to_mutating():
    runtime = LocalRuntime()
    runtime.register_type(sneaky_type())
    oid = runtime.create_object("Sneaky")
    with pytest.raises(InvocationError, match="read-only"):
        runtime.invoke(oid, "covert_read")
    assert runtime.invoke(oid, "read") == 0  # nothing committed


def test_local_runtime_allows_readonly_to_readonly():
    runtime = LocalRuntime()
    runtime.register_type(sneaky_type())
    oid = runtime.create_object("Sneaky")
    assert runtime.invoke(oid, "legit_read") == 0


@pytest.fixture()
def cluster_with_sneaky():
    sim, cluster = build_cluster(seed=101)
    cluster.register_type(sneaky_type())
    oid = cluster.create_object("Sneaky")
    return sim, cluster, oid


def probe(sim, cluster, oid, method_name, target, args=(), name="probe"):
    host = cluster.net.add_host(name)
    request = ClientRequest(f"{name}#1", name, oid, method_name, args, epoch=1)
    cluster.net.send(name, target, request, size_bytes=request.size())
    sim.run(until=sim.now + 20)
    return [m.payload for m in host.inbox.drain() if isinstance(m.payload, ClientReply)]


def test_covert_mutation_refused_at_backup(cluster_with_sneaky):
    sim, cluster, oid = cluster_with_sneaky
    replies = probe(sim, cluster, oid, "covert_read", "store-1")
    assert replies and not replies[0].ok
    assert "read-only" in replies[0].error
    from repro.core import keyspace

    # The backup still holds the creation-time default; nothing committed.
    assert cluster.node("store-1").runtime.storage.get(keyspace.value_key(oid, "v")) == b"0"


def test_covert_mutation_refused_at_primary_too(cluster_with_sneaky):
    sim, cluster, oid = cluster_with_sneaky
    replies = probe(sim, cluster, oid, "covert_read", "store-0", name="probe2")
    assert replies and not replies[0].ok


def test_replicas_stay_identical_after_attempts(cluster_with_sneaky):
    sim, cluster, oid = cluster_with_sneaky
    client = cluster.client("c0")
    cluster.run_invoke(client, oid, "bump")
    probe(sim, cluster, oid, "covert_read", "store-2", name="probe3")
    from repro.core import keyspace

    key = keyspace.value_key(oid, "v")
    values = {node.runtime.storage.get(key) for node in cluster.nodes.values()}
    assert len(values) == 1  # nothing forked


def test_remote_covert_mutation_refused_in_sharded_cluster():
    sim, cluster = build_cluster(seed=102, num_storage_nodes=4, num_shards=2)
    cluster.register_type(sneaky_type())
    a = cluster.create_object("Sneaky")
    b = None
    while b is None:
        candidate = cluster.create_object("Sneaky")
        if (
            cluster.bootstrap_shard_map.shard_for(candidate).shard_id
            != cluster.bootstrap_shard_map.shard_for(a).shard_id
        ):
            b = candidate
    # Read-only on a's replica set trying to mutate b remotely.
    target = cluster.bootstrap_shard_map.shard_for(a).primary
    replies = probe(sim, cluster, a, "covert_read_remote", target, args=(b,))
    assert replies and not replies[0].ok
    client = cluster.client("check")
    assert cluster.run_invoke(client, b, "read") == 0
