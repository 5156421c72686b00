"""End-to-end cluster tests: the full request path on a healthy cluster."""

import pytest

from repro.core import ObjectId
from repro.errors import InvocationFailed

from tests.cluster.conftest import build_cluster, run_ops


def test_mutate_then_read(small_cluster):
    sim, cluster = small_cluster
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    assert cluster.run_invoke(client, oid, "increment", 5) == 5
    assert cluster.run_invoke(client, oid, "read") == 5


def test_writes_replicate_to_all_backups(small_cluster):
    sim, cluster = small_cluster
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    cluster.run_invoke(client, oid, "increment", 3)
    sim.run(until=sim.now + 5)
    from repro.core import keyspace

    key = keyspace.value_key(oid, "count")
    values = {
        name: node.runtime.storage.get(key) for name, node in cluster.nodes.items()
    }
    assert len(set(values.values())) == 1
    assert all(value is not None for value in values.values())


def test_readonly_runs_on_any_replica(small_cluster):
    sim, cluster = small_cluster
    oid = cluster.create_object("Counter")
    clients = [cluster.client(f"c{i}") for i in range(6)]
    cluster.run_invoke(clients[0], oid, "increment", 1)
    ops = [(client, oid, "read", ()) for client in clients]
    results = run_ops(sim, cluster, ops)
    assert results == [1] * 6
    served = sum(node.stats.readonly_requests for node in cluster.nodes.values())
    assert served == 6
    # More than one replica served reads (uniform routing over 3 members).
    serving_nodes = [n for n in cluster.nodes.values() if n.stats.readonly_requests]
    assert len(serving_nodes) >= 2


def test_concurrent_increments_serialise_per_object(small_cluster):
    sim, cluster = small_cluster
    oid = cluster.create_object("Counter")
    clients = [cluster.client(f"c{i}") for i in range(10)]
    ops = [(client, oid, "increment", (1,)) for client in clients]
    results = run_ops(sim, cluster, ops)
    # Every increment observed a distinct predecessor state: no lost updates.
    assert sorted(results) == list(range(1, 11))
    final = cluster.run_invoke(clients[0], oid, "read")
    assert final == 10


def test_nested_call_within_replica_set(small_cluster):
    sim, cluster = small_cluster
    a = cluster.create_object("Counter")
    b = cluster.create_object("Counter")
    client = cluster.client("c0")
    assert cluster.run_invoke(client, a, "increment_remote", b, 4) == 4
    assert cluster.run_invoke(client, a, "read") == 4
    assert cluster.run_invoke(client, b, "read") == 4


def test_collections_roundtrip(small_cluster):
    sim, cluster = small_cluster
    oid = cluster.create_object("Notebook")
    client = cluster.client("c0")
    for text in ["a", "b", "c"]:
        cluster.run_invoke(client, oid, "add", text)
    assert cluster.run_invoke(client, oid, "listing") == ["a", "b", "c"]


def test_replica_read_after_write_is_fresh(small_cluster):
    """Invocation linearizability: any replica read after a write's reply
    must see that write (the primary waits for all backup acks)."""
    sim, cluster = small_cluster
    oid = cluster.create_object("Counter")
    writer = cluster.client("writer")
    readers = [cluster.client(f"r{i}") for i in range(9)]

    def sequence():
        for round_number in range(1, 4):
            yield from writer.invoke(oid, "increment", 1)
            for reader in readers:
                value = yield from reader.invoke(oid, "read")
                assert value == round_number, (value, round_number)

    process = sim.process(sequence())
    sim.run_until_triggered(process, limit=60_000)


def test_unknown_method_fails_cleanly(small_cluster):
    sim, cluster = small_cluster
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    with pytest.raises(InvocationFailed) as excinfo:
        cluster.run_invoke(client, oid, "no_such_method")
    assert "no_such_method" in str(excinfo.value)


def test_unknown_object_fails_cleanly(small_cluster):
    sim, cluster = small_cluster
    client = cluster.client("c0", max_attempts=2, request_timeout_ms=5.0)
    with pytest.raises(InvocationFailed):
        cluster.run_invoke(client, ObjectId.from_name("ghost"), "read")


def test_result_cache_serves_repeated_reads(small_cluster):
    sim, cluster = small_cluster
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    cluster.run_invoke(client, oid, "increment", 2)
    for _ in range(8):
        assert cluster.run_invoke(client, oid, "read") == 2
    hits = sum(node.runtime.stats.cache_hits for node in cluster.nodes.values())
    assert hits > 0


def test_cache_never_serves_stale_after_write(small_cluster):
    sim, cluster = small_cluster
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    for expected in range(1, 6):
        assert cluster.run_invoke(client, oid, "increment", 1) == expected
        assert cluster.run_invoke(client, oid, "read") == expected


def test_stale_epoch_request_rejected_and_retried(small_cluster):
    sim, cluster = small_cluster
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    client.epoch = 0  # stale on purpose; node is at epoch 1
    assert cluster.run_invoke(client, oid, "increment", 1) == 1
    assert cluster.total_node_stats()["rejected_wrong_epoch"] >= 0
    assert client.epoch >= 1  # refreshed along the way


def test_deterministic_replay():
    def run_once():
        sim, cluster = build_cluster(seed=42)
        oid = cluster.create_object("Counter", object_id=ObjectId.from_name("det"))
        clients = [cluster.client(f"c{i}") for i in range(5)]

        def timed(client):
            started = sim.now
            yield from client.invoke(oid, "increment", 1)
            return sim.now - started

        processes = [sim.process(timed(c)) for c in clients]
        sim.run_until_triggered(sim.all_of(processes), limit=sim.now + 120_000)
        return [round(p.value, 6) for p in processes]

    assert run_once() == run_once()


def test_sharded_cluster_remote_nested_call():
    sim, cluster = build_cluster(seed=3, num_storage_nodes=4, num_shards=2)
    # Find two objects owned by different shards.
    a = cluster.create_object("Counter")
    b = None
    for attempt in range(50):
        candidate = cluster.create_object("Counter")
        if (
            cluster.bootstrap_shard_map.shard_for(candidate).shard_id
            != cluster.bootstrap_shard_map.shard_for(a).shard_id
        ):
            b = candidate
            break
    assert b is not None
    client = cluster.client("c0")
    assert cluster.run_invoke(client, a, "increment_remote", b, 2) == 2
    assert cluster.run_invoke(client, a, "read") == 2
    assert cluster.run_invoke(client, b, "read") == 2
    assert cluster.total_node_stats()["remote_charges"] == 1
