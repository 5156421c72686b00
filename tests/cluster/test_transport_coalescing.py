"""Transport coalescing + ack piggybacking at the cluster level (§5j).

Two guarantees under test: the knob is inert when off (pinned event and
message counts — the historical wire behavior byte-for-byte), and with
it on, deferred cumulative acks leave the watermark protocol exactly
where dedicated per-frame acks would have left it once the cluster
quiesces.
"""

from tests.cluster.conftest import build_cluster


def _run_workload(coalescing, seed=3, **kwargs):
    sim, cluster = build_cluster(
        seed=seed, transport_coalescing=coalescing, **kwargs
    )
    oids = [cluster.create_object("Counter") for _ in range(4)]
    clients = [cluster.client(f"c{i}") for i in range(4)]

    def loop(client, oid):
        total = 0
        for _ in range(10):
            total = yield from client.invoke(oid, "increment", 1)
        return total

    processes = [
        sim.process(loop(client, oids[i])) for i, client in enumerate(clients)
    ]
    gate = sim.all_of(processes)
    values = sim.run_until_triggered(gate, limit=sim.now + 120_000)
    assert all(values[p] == 10 for p in processes)
    assert cluster.quiesce()
    return sim, cluster


def _settlement_state(cluster):
    """Every pipeline's settlement watermark and every backup's applied
    point — what the ack protocol exists to advance."""
    state = {}
    for name, node in sorted(cluster.nodes.items()):
        for shard_id, pipeline in sorted(node.pipelines.items()):
            state[("settled", name, shard_id)] = pipeline.settled_through
        for shard_id, applier in sorted(node.backup_appliers.items()):
            state[("applied", name, shard_id)] = applier.applied_through
    return state


def test_knob_off_is_byte_identical():
    """Same seed, knob off twice: pinned counts (determinism), and the
    frame/message counters stay equal (no coalescing in the pipeline)."""
    sim_a, cluster_a = _run_workload(coalescing=False)
    sim_b, cluster_b = _run_workload(coalescing=False)
    assert sim_a.events_scheduled == sim_b.events_scheduled
    assert cluster_a.net.stats.messages_sent == cluster_b.net.stats.messages_sent
    assert (
        cluster_a.net.stats.frames_sent == cluster_a.net.stats.messages_sent
    )
    assert all(
        node.stats.acks_deferred == 0 for node in cluster_a.nodes.values()
    )


def test_coalescing_cuts_wire_messages_and_defers_acks():
    _sim_off, cluster_off = _run_workload(coalescing=False)
    _sim_on, cluster_on = _run_workload(coalescing=True)
    assert (
        cluster_on.net.stats.messages_sent
        < cluster_off.net.stats.messages_sent
    )
    deferred = sum(
        node.stats.acks_deferred for node in cluster_on.nodes.values()
    )
    sent = sum(
        node.stats.acks_piggybacked + node.stats.acks_timer_flushed
        for node in cluster_on.nodes.values()
    )
    assert deferred > 0
    # Cumulative merging means fewer ack sends than deferrals, but every
    # deferred watermark must eventually leave the node one way or the
    # other (quiesce() above would hang otherwise).
    assert 0 < sent <= deferred
    assert all(not node.acks.pending for node in cluster_on.nodes.values())


def test_deferred_acks_settle_to_the_same_watermarks():
    """After quiescing, piggybacked/timer-flushed cumulative acks must
    leave settlement and application watermarks exactly where dedicated
    per-frame acks left them — deferral changes timing, never outcome."""
    _sim_off, cluster_off = _run_workload(coalescing=False)
    _sim_on, cluster_on = _run_workload(coalescing=True)
    assert _settlement_state(cluster_on) == _settlement_state(cluster_off)


def test_coalescing_with_replica_reads_interleaved():
    """Writes + reads with both protocols on: replica reads stay
    monotonic while their acks/lease state travel the deferred path."""
    sim, cluster = build_cluster(seed=5, transport_coalescing=True)
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")

    def loop():
        for i in range(1, 16):
            value = yield from client.invoke(oid, "increment", 1)
            assert value == i
            read = yield from client.invoke(oid, "read")
            assert read == i, (read, i)

    process = sim.process(loop())
    sim.run_until_triggered(process, limit=sim.now + 120_000)
    assert cluster.quiesce()


def test_coalescing_determinism_same_seed():
    sim_a, cluster_a = _run_workload(coalescing=True)
    sim_b, cluster_b = _run_workload(coalescing=True)
    assert sim_a.events_scheduled == sim_b.events_scheduled
    assert (
        cluster_a.net.stats.messages_sent == cluster_b.net.stats.messages_sent
    )
    assert _settlement_state(cluster_a) == _settlement_state(cluster_b)
