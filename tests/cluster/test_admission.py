"""Store-node admission: shed/retry-after end-to-end, penalty bookkeeping."""

import pytest

from repro.errors import RequestTimeout

from tests.cluster.conftest import build_cluster


def run_process(sim, generator, limit_ms=600_000):
    process = sim.process(generator)
    return sim.run_until_triggered(process, limit=sim.now + limit_ms)


def total_shed(cluster):
    return sum(node.stats.shed_requests for node in cluster.nodes.values())


def test_shed_request_retries_after_server_advice_and_succeeds():
    # 1 req/s with the default burst of 8: the ninth quick mutation finds
    # an empty bucket, gets a RetryAfter, sleeps the advised refill time
    # (hundreds of simulated ms), then lands.
    sim, cluster = build_cluster(admission_control=True, tenant_rate_limit=1.0)
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")

    def driver():
        for _ in range(9):
            yield from client.invoke(oid, "increment", 1)
        return (yield from client.invoke(oid, "read"))

    started = sim.now
    assert run_process(sim, driver()) == 9
    assert total_shed(cluster) >= 1
    # The wait was the server-advised bucket deficit, not the client's
    # own jitter: the jitter would add ~1 ms, the advice is ~1000 ms at
    # 1 req/s.
    assert sim.now - started > 100.0


def test_protect_reads_serves_reads_while_shedding_writes():
    sim, cluster = build_cluster(admission_control=True)
    oid = cluster.create_object("Counter")
    client = cluster.client("c0", max_attempts=2, request_timeout_ms=50.0)
    assert run_process(sim, client.invoke(oid, "increment", 1)) == 1
    # Force the backpressure gate open everywhere: every mutating request
    # sheds, every attempt, until the queues would drain.
    for node in cluster.nodes.values():
        node._admission.pressure_fn = lambda: 1_000
    with pytest.raises(RequestTimeout, match="shed by"):
        run_process(sim, client.invoke(oid, "increment", 1))
    # ... but the read SLO survives the (simulated) write storm.
    assert run_process(sim, client.invoke(oid, "read")) == 1
    assert total_shed(cluster) >= 2  # both attempts of the write


def test_shed_replies_are_not_remembered_as_completed():
    """A shed is an admission decision, not an execution: the retried
    request must be re-admitted and actually run, not replayed from the
    at-most-once cache."""
    sim, cluster = build_cluster(admission_control=True, tenant_rate_limit=1.0)
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")

    def driver():
        for _ in range(9):
            yield from client.invoke(oid, "increment", 1)

    run_process(sim, driver())
    assert run_process(sim, client.invoke(oid, "read")) == 9


def test_penalty_map_prunes_expired_and_caps_size():
    sim, cluster = build_cluster()
    client = cluster.client("c0")
    for i in range(3 * client.PENALTY_CAP):
        client._note_penalty(f"backup-{i}")
    assert len(client._penalty) <= client.PENALTY_CAP
    # Once the penalties expire, routing a read drops them all.
    sim.run(until=sim.now + 2 * client.REPLICA_PENALTY_MS)
    oid = cluster.create_object("Counter")
    client._route(oid, readonly=True)
    assert not client._penalty


def test_note_penalty_keeps_the_latest_expiring_entries():
    sim, cluster = build_cluster()
    client = cluster.client("c0")
    client._penalty = {f"old-{i}": sim.now + 1.0 for i in range(client.PENALTY_CAP)}
    sim.run(until=sim.now + 0.5)
    client._note_penalty("fresh")
    assert "fresh" in client._penalty
    assert len(client._penalty) <= client.PENALTY_CAP
