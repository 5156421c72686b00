"""Regression tests for the replica/retry-path bugs fixed in this change.

Each test pins one bug:

- stale cache entries after out-of-order replication drains,
- the wrong-epoch asymmetry (node behind a reconfiguration),
- unbounded at-most-once tables / primary replication logs,
- fire-and-forget RemoteCharge losing nested writes' replication.
"""

import pytest

from repro.chaos import ConsistencyChecker
from repro.chaos.workload import register_type
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.messages import ClientRequest, ReplicateWritesRange
from repro.cluster.remote_charge import RemoteCharge
from repro.core import (
    ObjectType,
    ValueField,
    keyspace,
    method,
    readonly_method,
)
from repro.core.fields import encode_value
from repro.kvstore.batch import Round, WriteBatch
from repro.sim import Simulation


def build_cluster(seed=1, **kwargs):
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, ClusterConfig(seed=seed, **kwargs))
    cluster.register_type(register_type())
    cluster.start()
    return sim, cluster


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


# -- 1. stale cache after out-of-order replication drain ---------------------


def drive_out_of_order_drain(cluster, backup, primary_name, oid_a, oid_b):
    """Deliver seq 2 (writes B) before seq 1 (writes A) at ``backup``, each
    alone in a one-round frame (the pipeline at one round per frame).

    On receipt of seq 1 the applier drains seq 2 from its buffer; correct
    code must invalidate cached results reading B's keys."""
    def encoded_write(oid, value):
        batch = WriteBatch()
        batch.put(keyspace.value_key(oid, "value"), encode_value(value))
        return Round.of([batch])

    shard_id = cluster.current_config()[1].shard_for(oid_a).shard_id
    backup._on_replicate_range(ReplicateWritesRange(
        shard_id=shard_id, epoch=backup.epoch, first_sequence=2,
        rounds=[encoded_write(oid_b, "b-new")], primary=primary_name,
    ))
    assert backup.backup_appliers[shard_id].pending_count == 1  # buffered
    backup._on_replicate_range(ReplicateWritesRange(
        shard_id=shard_id, epoch=backup.epoch, first_sequence=1,
        rounds=[encoded_write(oid_a, "a-new")], primary=primary_name,
    ))


def setup_drain_fixture(**config):
    sim, cluster = build_cluster(**config)
    _epoch, shard_map = cluster.current_config()
    replica_set = shard_map.replica_sets[0]
    oid_a = cluster.create_object("Register", initial={"value": "a-old"})
    oid_b = cluster.create_object("Register", initial={"value": "b-old"})
    backup = cluster.nodes[replica_set.backups[0]]
    # a cached readonly result over B's keys, stored before the drain
    assert backup.runtime.invoke(oid_b, "read") == "b-old"
    assert len(backup.runtime.cache) == 1
    return sim, cluster, backup, replica_set.primary, oid_a, oid_b


def test_drained_sequences_invalidate_cache():
    sim, cluster, backup, primary, oid_a, oid_b = setup_drain_fixture()
    drive_out_of_order_drain(cluster, backup, primary, oid_a, oid_b)
    # both writes applied, and the cached read over B was invalidated
    assert backup.runtime.storage.get(keyspace.value_key(oid_b, "value")) is not None
    assert backup.runtime.cache.stale_entries(backup.runtime.storage.get) == []
    assert len(backup.runtime.cache) == 0


def test_seeded_drain_bug_leaves_stale_entry():
    sim, cluster, backup, primary, oid_a, oid_b = setup_drain_fixture(
        seeded_bugs=("drain-invalidation",)
    )
    drive_out_of_order_drain(cluster, backup, primary, oid_a, oid_b)
    # the seed's bug: the drained write to B never invalidated the cache
    stale = backup.runtime.cache.stale_entries(backup.runtime.storage.get)
    assert len(stale) == 1
    report = ConsistencyChecker(cluster).check_cache_coherence()
    assert [v.kind for v in report.violations] == ["stale-cache"]


# -- 2. node-behind epoch rejection ------------------------------------------


def test_node_behind_rejects_retryably_and_catches_up():
    sim, cluster = build_cluster()
    oid = cluster.create_object("Register", initial={"value": 0})
    _epoch, shard_map = cluster.current_config()
    primary = cluster.nodes[shard_map.shard_for(oid).primary]
    # simulate a node that missed the configuration broadcast
    primary.epoch = 0

    client = cluster.client("c", request_timeout_ms=40.0)
    assert cluster.run_invoke(client, oid, "write", "v1") == "v1"

    assert primary.stats.rejected_node_behind >= 1
    assert primary.stats.config_refreshes >= 1
    assert primary.epoch == cluster.current_config()[0]  # caught back up
    # and the rejection was NOT billed as a client-stale wrong epoch
    assert primary.stats.rejected_wrong_epoch == 0


def test_newer_epoch_request_gets_node_behind_error():
    sim, cluster = build_cluster()
    oid = cluster.create_object("Register", initial={"value": 0})
    _epoch, shard_map = cluster.current_config()
    primary_name = shard_map.shard_for(oid).primary
    client = cluster.client("c")
    request = ClientRequest(
        request_id=f"{client.name}#999",
        client=client.name,
        object_id=oid,
        method="write",
        args=("x",),
        epoch=client.epoch + 5,
    )
    cluster.net.send(client.name, primary_name, request, size_bytes=request.size())
    sim.run(until=sim.now + 20.0)
    replies = [p for p in client.stub._mail if getattr(p, "request_id", None) == request.request_id]
    assert len(replies) == 1
    assert replies[0].error == "node behind"
    assert replies[0].error in client.RETRYABLE_ERRORS


# -- 3. bounded at-most-once tables and pruned replication logs ---------------


def test_completed_table_and_replication_log_stay_bounded():
    sim, cluster = build_cluster()
    oid = cluster.create_object("Register", initial={"value": 0})
    client = cluster.client("c")
    for n in range(12):
        assert cluster.run_invoke(client, oid, "write", f"v{n}") == f"v{n}"
    assert cluster.quiesce()

    _epoch, shard_map = cluster.current_config()
    replica_set = shard_map.shard_for(oid)
    primary = cluster.nodes[replica_set.primary]
    # watermark pruning: at most one retained reply for the client
    assert primary._completed.per_client_retained().get(client.name, 0) <= 1
    assert len(primary._completed) <= 2
    # every fully-acked sequence was forgotten
    pipeline = primary.pipelines[replica_set.shard_id]
    assert pipeline.last_assigned >= 12
    assert pipeline.settled_through == pipeline.last_assigned
    assert pipeline.history == {}


def test_ghost_duplicate_below_watermark_is_dropped():
    sim, cluster = build_cluster()
    oid = cluster.create_object("Register", initial={"value": 0})
    client = cluster.client("c")
    for n in range(3):
        cluster.run_invoke(client, oid, "write", f"v{n}")
    _epoch, shard_map = cluster.current_config()
    primary = cluster.nodes[shard_map.shard_for(oid).primary]
    value_before = primary.runtime.storage.get(keyspace.value_key(oid, "value"))

    # a laggard duplicate of the first request, long since superseded
    ghost = ClientRequest(
        request_id=f"{client.name}#1",
        client=client.name,
        object_id=oid,
        method="write",
        args=("ghost",),
        epoch=client.epoch,
    )
    cluster.net.send(client.name, primary.name, ghost, size_bytes=ghost.size())
    sim.run(until=sim.now + 20.0)

    assert primary.stats.dropped_stale_duplicates == 1
    # dropped silently: no reply, and definitely not re-executed
    assert not [p for p in client.stub._mail if getattr(p, "request_id", None) == ghost.request_id]
    assert primary.runtime.storage.get(keyspace.value_key(oid, "value")) == value_before


# -- 4. RemoteCharge retransmission -------------------------------------------


def test_remote_charge_retransmits_after_drop():
    sim = Simulation(seed=4)
    cluster = Cluster(sim, ClusterConfig(seed=4, num_storage_nodes=4, num_shards=2))
    cluster.register_type(counter_type())
    cluster.start()
    _epoch, shard_map = cluster.current_config()
    # two counters on different shards, so increment_remote crosses nodes
    oid_a = cluster.create_object("Counter")
    oid_b = next(
        oid
        for oid in (cluster.create_object("Counter") for _ in range(32))
        if shard_map.shard_for(oid).shard_id != shard_map.shard_for(oid_a).shard_id
    )

    dropped = []

    def drop_first_charge(message):
        if isinstance(message.payload, RemoteCharge) and not dropped:
            dropped.append(message.payload.charge_id)
            return True
        return False

    cluster.net.drop_filter = drop_first_charge
    client = cluster.client("c")
    assert cluster.run_invoke(client, oid_a, "increment_remote", oid_b, 5) == 5
    cluster.net.drop_filter = None
    assert cluster.quiesce()

    assert dropped, "no RemoteCharge was ever sent"
    totals = cluster.total_node_stats()
    assert totals["remote_charge_retries"] >= 1
    assert totals["remote_charge_timeouts"] == 0
    # the charge carried B's nested write for replication: with the seed's
    # fire-and-forget send, B's backups would silently diverge here
    report = ConsistencyChecker(cluster).check_convergence([oid_a, oid_b])
    assert report.ok, report.summary()


def test_remote_charge_gives_up_after_budget():
    sim = Simulation(seed=4)
    cluster = Cluster(sim, ClusterConfig(seed=4, num_storage_nodes=4, num_shards=2))
    cluster.register_type(counter_type())
    cluster.start()
    _epoch, shard_map = cluster.current_config()
    oid_a = cluster.create_object("Counter")
    oid_b = next(
        oid
        for oid in (cluster.create_object("Counter") for _ in range(32))
        if shard_map.shard_for(oid).shard_id != shard_map.shard_for(oid_a).shard_id
    )

    cluster.net.drop_filter = lambda m: isinstance(m.payload, RemoteCharge)
    client = cluster.client("c")
    # the invocation itself still completes: charges are accounting +
    # replication traffic, not part of the client-visible commit
    assert cluster.run_invoke(client, oid_a, "increment_remote", oid_b, 5) == 5
    cluster.net.drop_filter = None
    assert cluster.quiesce()

    totals = cluster.total_node_stats()
    assert totals["remote_charge_timeouts"] >= 1
    assert totals["remote_charge_retries"] >= 1
