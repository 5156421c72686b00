"""Lease-based replica reads: serving, fencing, and refusal.

The protocol under test (see DESIGN.md §5g): backups holding a fresh
lease from their shard's primary serve read-only invocations locally,
parking each reply until the settlement watermark covers the read state;
clients carry the settled fence from every reply into later reads as
``min_applied``, so observing a settled write and then reading older
backup state is impossible; deposed or partitioned replicas refuse reads
once their lease expires instead of serving stale state.
"""

from repro.cluster.messages import ClientReply, ClientRequest
from repro.rpc import RpcStub

from tests.cluster.conftest import build_cluster


def _served(cluster) -> int:
    return sum(node.stats.replica_reads_served for node in cluster.nodes.values())


def test_replica_reads_monotonic_with_interleaved_writes():
    """A client alternating settled writes with reads must never observe
    a stale value, even though the reads are served at backups."""
    sim, cluster = build_cluster()
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")

    def loop():
        for i in range(1, 21):
            value = yield from client.invoke(oid, "increment", 1)
            assert value == i
            read = yield from client.invoke(oid, "read")
            assert read == i, (read, i)

    process = sim.process(loop())
    sim.run_until_triggered(process, limit=sim.now + 60_000)
    # The reads actually exercised the lease path, and the client
    # collected monotonic-read fences from the replies.
    assert _served(cluster) > 0
    assert client._fences
    assert max(client._fences.values()) > 0


def test_replica_reads_disabled_reads_go_to_primary():
    sim, cluster = build_cluster(replica_reads=False)
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    assert not client.replica_reads
    assert cluster.run_invoke(client, oid, "increment", 1) == 1
    for _ in range(5):
        assert cluster.run_invoke(client, oid, "read") == 1
    assert _served(cluster) == 0


def test_lagging_backup_refuses_stale_read_after_reconfiguration():
    """The monotonic-read regression this PR fixes: a backup cut off
    before a settled write must refuse reads (expired lease), never
    answer with its older local state."""
    sim, cluster = build_cluster()
    oid = cluster.create_object("Counter")
    writer = cluster.client("writer")
    assert cluster.run_invoke(writer, oid, "increment", 1) == 1

    # Cut one backup off from every node and coordinator — but not from
    # clients, which keep their own (stale) routing.
    lagger = "store-2"
    others = [n for n in cluster.nodes if n != lagger] + list(cluster.coordinators)
    cluster.net.partition([lagger], others)

    # Run until failure detection removes the lagging backup, so the
    # remaining members can settle writes without it.
    deadline = sim.now + 5_000.0
    replica_set = None
    while sim.now < deadline:
        sim.run(until=sim.now + 20.0)
        _epoch, shard_map = cluster.current_config()
        replica_set = shard_map.shard_for(oid)
        if lagger not in replica_set.members:
            break
    assert replica_set is not None and lagger not in replica_set.members

    # Writes the deposed backup never sees, settled under the new config.
    assert cluster.run_invoke(writer, oid, "increment", 1) == 2
    assert cluster.run_invoke(writer, oid, "increment", 1) == 3
    assert cluster.run_invoke(writer, oid, "read") == 3
    assert writer._fences  # replies carried settled fences

    # The deposed backup still holds the old configuration and the old
    # (stale) counter state.  A read routed straight at it with the old
    # epoch must come back as a lease refusal, not a stale value.
    stub = RpcStub(
        sim, cluster.net, "probe", default_deadline_ms=500.0, discard_unmatched=True
    )
    request = ClientRequest(
        request_id="probe#1",
        client="probe",
        object_id=oid,
        method="read",
        args=(),
        epoch=cluster.nodes[lagger].epoch,
        min_applied=0,
    )

    def probe():
        return (
            yield from stub.call(
                lagger,
                request,
                lambda p: isinstance(p, ClientReply) and p.request_id == "probe#1",
            )
        )

    reply = sim.run_until_triggered(sim.process(probe()), limit=sim.now + 10_000)
    assert reply is not None, "deposed backup never answered the probe"
    assert not reply.ok
    assert reply.error == "no lease"
    assert reply.server == lagger


def test_leased_backup_rejects_read_beyond_its_applied_state():
    """A backup with a valid lease but an applied watermark below the
    client's fence must park and then reject retryably, never answer
    from state older than what the client already observed."""
    sim, cluster = build_cluster()
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    assert cluster.run_invoke(client, oid, "increment", 1) == 1

    backup_name = "store-1"
    backup = cluster.nodes[backup_name]
    state = backup.replica_reads._state_for(0, "store-0")
    state.lease_expiry = sim.now + 10_000.0  # synthetic fresh lease

    stub = RpcStub(
        sim, cluster.net, "probe", default_deadline_ms=500.0, discard_unmatched=True
    )
    request = ClientRequest(
        request_id="probe#1",
        client="probe",
        object_id=oid,
        method="read",
        args=(),
        epoch=backup.epoch,
        min_applied=10_000,  # a fence far beyond anything applied
    )

    def probe():
        return (
            yield from stub.call(
                backup_name,
                request,
                lambda p: isinstance(p, ClientReply) and p.request_id == "probe#1",
            )
        )

    reply = sim.run_until_triggered(sim.process(probe()), limit=sim.now + 10_000)
    assert reply is not None
    assert not reply.ok
    assert reply.error == "replica behind"
    assert backup.stats.replica_behind_rejections >= 1
    # The park bookkeeping drained (nothing wedges quiescence).
    assert backup.replica_reads.parked == 0


def test_client_penalizes_rejecting_backup_and_retries_elsewhere():
    """A lease rejection is retryable: the client must still complete the
    read (via the primary or another backup) and sideline the rejecting
    replica for a moment."""
    sim, cluster = build_cluster()
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    assert cluster.run_invoke(client, oid, "increment", 1) == 1

    # Cut both backups off from the primary (not from clients or
    # coordinators): leases lapse, so backup reads reject until the
    # client retries at the primary.
    cluster.net.partition(["store-0"], ["store-1", "store-2"])
    sim.run(until=sim.now + 45.0)  # past the lease horizon

    assert cluster.run_invoke(client, oid, "read") == 1
    rejections = sum(
        node.stats.lease_rejections + node.stats.replica_behind_rejections
        for node in cluster.nodes.values()
    )
    if rejections:
        assert client._penalty  # rejecting backups are sidelined
    cluster.net.heal()
