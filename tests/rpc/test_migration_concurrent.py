"""Regression: concurrent migrations must not lose each other's wake-ups.

The pre-RPC ``Migrator`` kept a single ``_mail_signal`` slot: when two
``migrate()`` processes awaited concurrently, the second overwrote the
first's signal, so the first's reply only surfaced at its deadline rescan
(or was lost entirely if the reply landed after the deadline).  The
``RpcStub`` waiter list wakes every parked waiter per delivery.
"""

from repro.chaos.workload import register_type
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.messages import CONTROL_RPC_DEADLINE_MS
from repro.cluster.migration import Migrator
from repro.sim import Simulation


def build_cluster():
    sim = Simulation(seed=11)
    cluster = Cluster(
        sim, ClusterConfig(seed=11, num_storage_nodes=4, num_shards=2)
    )
    cluster.register_type(register_type())
    return sim, cluster


def test_concurrent_migrations_complete_promptly():
    sim, cluster = build_cluster()
    # Two objects that both live on shard 0, moved concurrently to shard 1.
    oids = []
    while len(oids) < 2:
        oid = cluster.create_object("Register", initial={"value": 0})
        _epoch, shard_map = cluster.current_config()
        if shard_map.shard_for(oid).shard_id == 0:
            oids.append(oid)
    cluster.start()
    migrator = Migrator(cluster)
    done = []

    def run_one(oid):
        yield from migrator.migrate(oid, to_shard=1)
        done.append((str(oid), sim.now))

    started = sim.now
    for oid in oids:
        sim.process(run_one(oid))
    sim.run(until=started + 5_000.0)

    assert len(done) == 2
    _epoch, shard_map = cluster.current_config()
    for oid in oids:
        assert shard_map.shard_for(oid).shard_id == 1
    # Both finish in a handful of round trips — far inside one 50 ms
    # deadline window.  The old single-signal Migrator stranded one of
    # the two interleaved exchanges until its deadline rescan.
    for _oid, finished_at in done:
        assert finished_at - started < CONTROL_RPC_DEADLINE_MS

    # Writes through refreshed routing still land after the flip.
    client = cluster.client("c")
    for oid in oids:
        assert cluster.run_invoke(client, oid, "write", "post-move") == "post-move"
