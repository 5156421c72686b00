"""Focused StoreNode behaviours: at-most-once, epochs, frozen objects."""

from repro.cluster.messages import ClientReply, ClientRequest

from tests.cluster.conftest import build_cluster


def send_request(cluster, request, target="store-0"):
    cluster.net.send(request.client, target, request, size_bytes=request.size())


def drain_replies(sim, cluster, client_host, until_extra=20.0):
    sim.run(until=sim.now + until_extra)
    return [m.payload for m in client_host.inbox.drain() if isinstance(m.payload, ClientReply)]


def make_raw_client(cluster, name="raw"):
    return cluster.net.add_host(name)


def test_duplicate_request_executes_once():
    sim, cluster = build_cluster(seed=61)
    oid = cluster.create_object("Counter")
    host = make_raw_client(cluster)
    request = ClientRequest("raw#1", "raw", oid, "increment", (1,), epoch=1)
    send_request(cluster, request)
    sim.run(until=sim.now + 10)
    send_request(cluster, request)  # a retransmission of the same request
    replies = drain_replies(sim, cluster, host)
    assert len(replies) == 2
    assert all(reply.ok and reply.value == 1 for reply in replies)
    # The counter really only moved once.
    client = cluster.client("checker")
    assert cluster.run_invoke(client, oid, "read") == 1


def test_stale_epoch_rejected_with_current_epoch():
    sim, cluster = build_cluster(seed=62)
    oid = cluster.create_object("Counter")
    host = make_raw_client(cluster)
    request = ClientRequest("raw#1", "raw", oid, "increment", (1,), epoch=0)
    send_request(cluster, request)
    replies = drain_replies(sim, cluster, host)
    assert len(replies) == 1
    assert not replies[0].ok
    assert replies[0].error == "wrong epoch"
    assert replies[0].current_epoch == 1


def test_non_primary_rejects_writes():
    sim, cluster = build_cluster(seed=63)
    oid = cluster.create_object("Counter")
    host = make_raw_client(cluster)
    request = ClientRequest("raw#1", "raw", oid, "increment", (1,), epoch=1)
    send_request(cluster, request, target="store-1")  # a backup
    replies = drain_replies(sim, cluster, host)
    assert len(replies) == 1
    assert replies[0].error == "not primary"


def test_backup_serves_readonly():
    sim, cluster = build_cluster(seed=64)
    oid = cluster.create_object("Counter", initial={"count": 4})
    host = make_raw_client(cluster)
    request = ClientRequest("raw#1", "raw", oid, "read", (), epoch=1)
    send_request(cluster, request, target="store-2")
    replies = drain_replies(sim, cluster, host)
    assert replies[0].ok and replies[0].value == 4


def test_frozen_object_rejects_with_retryable_error():
    sim, cluster = build_cluster(seed=65)
    oid = cluster.create_object("Counter")
    node = cluster.node("store-0")
    node.migration.frozen.add(str(oid))
    host = make_raw_client(cluster)
    request = ClientRequest("raw#1", "raw", oid, "increment", (1,), epoch=1)
    send_request(cluster, request)
    replies = drain_replies(sim, cluster, host)
    assert replies[0].error == "migration in progress"


def test_crashed_node_stays_silent():
    sim, cluster = build_cluster(seed=66)
    oid = cluster.create_object("Counter")
    cluster.crash_node("store-0")
    host = make_raw_client(cluster)
    request = ClientRequest("raw#1", "raw", oid, "increment", (1,), epoch=1)
    send_request(cluster, request)
    replies = drain_replies(sim, cluster, host)
    assert replies == []


def test_retry_of_inflight_request_executes_once():
    """Regression: a retransmission arriving while the original request is
    still executing must wait for it, not execute a second time (the
    retry-storm bug found at the full evaluation scale)."""
    sim, cluster = build_cluster(seed=67)
    oid = cluster.create_object("Counter")
    host = make_raw_client(cluster)
    request = ClientRequest("raw#1", "raw", oid, "increment", (1,), epoch=1)
    # Two copies in flight at once: the second arrives before the first
    # finishes its (simulated) execution + replication.
    send_request(cluster, request)
    send_request(cluster, request)
    replies = drain_replies(sim, cluster, host)
    assert len(replies) == 2
    assert all(reply.ok and reply.value == 1 for reply in replies)
    client = cluster.client("checker")
    assert cluster.run_invoke(client, oid, "read") == 1
    # Exactly one execution took the object's lock.
    assert cluster.node("store-0").locks.stats.acquisitions == 1
