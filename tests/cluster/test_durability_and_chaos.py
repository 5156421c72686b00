"""Cross-layer integration: durable cluster nodes, and chaos (message loss).

The paper's LambdaStore persists through LevelDB; here the cluster runs
with each node's storage on the real LSM store, and data survives a full
cluster restart.  The chaos tests inject random message loss on the live
request path and verify correctness is unaffected (only latency).
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core import ObjectId
from repro.core.linearizability import HistoryRecorder, check_linearizable
from repro.sim import Simulation

from tests.cluster.conftest import build_cluster, counter_type, run_ops


def durable_cluster(tmp_path, seed=1):
    sim = Simulation(seed=seed)
    cluster = Cluster(
        sim, ClusterConfig(seed=seed, durable_dir=str(tmp_path / "cluster"))
    )
    cluster.register_type(counter_type())
    cluster.start()
    return sim, cluster


def test_durable_cluster_serves_requests(tmp_path):
    sim, cluster = durable_cluster(tmp_path)
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    assert cluster.run_invoke(client, oid, "increment", 5) == 5
    assert cluster.run_invoke(client, oid, "read") == 5
    cluster.close()


def test_durable_cluster_survives_full_restart(tmp_path):
    oid = ObjectId.from_name("durable-counter")
    sim, cluster = durable_cluster(tmp_path)
    client = cluster.client("c0")
    cluster.create_object("Counter", object_id=oid)
    for _ in range(7):
        cluster.run_invoke(client, oid, "increment", 1)
    cluster.close()

    # A brand-new simulation + cluster over the same directories: every
    # node recovers its state from WAL/SSTables.
    sim2 = Simulation(seed=2)
    cluster2 = Cluster(
        sim2, ClusterConfig(seed=2, durable_dir=str(tmp_path / "cluster"))
    )
    cluster2.register_type(counter_type())
    cluster2.start()
    # Re-register the object's type mapping for client routing.
    cluster2._object_types[str(oid)] = "Counter"
    client2 = cluster2.client("c1")
    assert cluster2.run_invoke(client2, oid, "read") == 7
    assert cluster2.run_invoke(client2, oid, "increment", 1) == 8
    cluster2.close()


def test_backups_persist_replicated_writes(tmp_path):
    sim, cluster = durable_cluster(tmp_path, seed=3)
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    cluster.run_invoke(client, oid, "increment", 9)
    sim.run(until=sim.now + 5)
    from repro.core import keyspace

    key = keyspace.value_key(oid, "count")
    for node in cluster.nodes.values():
        assert node.runtime.storage.get(key) is not None
    cluster.close()


# -- chaos: random message loss ------------------------------------------------


@pytest.mark.parametrize("drop", [0.05, 0.15])
def test_increments_correct_under_message_loss(drop):
    sim, cluster = build_cluster(seed=17)
    cluster.net.drop_probability = drop
    oid = cluster.create_object("Counter")
    clients = [cluster.client(f"c{i}", request_timeout_ms=40.0) for i in range(6)]
    ops = [(client, oid, "increment", (1,)) for client in clients]
    results = run_ops(sim, cluster, ops, limit_ms=600_000)
    cluster.net.drop_probability = 0.0
    final = cluster.run_invoke(clients[0], oid, "read")
    # Lost replies cause client retries; at-most-once on the primary
    # dedupes them, so the counter equals the number of client operations.
    assert final == len(clients)
    assert sorted(results) == list(range(1, 7))


def test_linearizable_history_under_message_loss():
    sim, cluster = build_cluster(seed=19)
    cluster.net.drop_probability = 0.1
    oid = cluster.create_object("Counter")
    history = HistoryRecorder()
    clients = [
        cluster.client(f"c{i}", request_timeout_ms=40.0, recorder=history)
        for i in range(4)
    ]

    def load(client, count):
        rng = sim.rng(f"chaos.{client.name}")
        for _ in range(count):
            yield sim.timeout(rng.uniform(0, 1.0))
            if rng.random() < 0.5:
                yield from client.invoke(oid, "increment", 1)
            else:
                yield from client.invoke(oid, "read")

    processes = [sim.process(load(client, 3)) for client in clients]
    sim.run_until_triggered(sim.all_of(processes), limit=600_000)

    def apply_fn(state, op):
        if op.method == "increment":
            return op.result == state + 1, state + 1
        return op.result == state, state

    assert len(history) == 12
    assert check_linearizable(history.invocations(), 0, apply_fn)
