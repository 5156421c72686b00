"""Unit tests for group-commit replication: cumulative acks and the
per-shard :class:`ReplicationPipeline`."""

from repro.cluster.messages import ReplicateAck

from tests.cluster.conftest import PipelineHarness, build_cluster, tagged, tags


# -- cumulative acks --------------------------------------------------------


def test_record_ack_counts_duplicate_reacks_once():
    # Retransmission crossings re-deliver acks; the counter must only see
    # first-time (sequence, backup) pairs.
    h = PipelineHarness(backups=("b1",))
    h.submit_rounds(1)
    for _ in range(3):
        h.pipeline.on_ack("b1", 1)
    assert h.pipeline.stats.acked == 1
    assert h.pipeline.acked_through == {"b1": 1}


def test_record_ack_is_implicitly_cumulative():
    # Backups apply strictly in order, so an ack for 3 means 1 and 2
    # landed too (their acks may have been dropped on the wire).
    h = PipelineHarness()
    h.submit_rounds(3)
    h.pipeline.on_ack("b1", 3)
    assert h.pipeline.acked_through["b1"] == 3
    assert h.pipeline.stats.acked == 3
    h.pipeline.on_ack("b2", 1)
    h.pipeline.on_ack("b2", 3)  # back-fills 2 and 3 only
    assert h.pipeline.stats.acked == 6
    assert h.pipeline.settled_through == 3


def test_record_cumulative_ack_rejects_stale_and_duplicate():
    h = PipelineHarness()
    h.submit_rounds(3)
    h.pipeline.on_ack("b1", 2)
    h.pipeline.on_ack("b1", 2)  # duplicate
    h.pipeline.on_ack("b1", 1)  # reordered/stale
    assert h.pipeline.acked_through["b1"] == 2
    assert h.pipeline.stats.acked == 2  # back-fill counted each sequence once


def test_cumulative_ack_counts_only_assigned_unpruned_rounds():
    h = PipelineHarness()
    h.submit_rounds(4)
    h.pipeline.on_ack("b2", 1)
    h.backups.remove("b1")  # 1-2 settle without b1's ack
    h.pipeline.on_config_change()
    h.pipeline.on_ack("b2", 2)
    assert h.pipeline.settled_through == 2
    assert len(h.pipeline.history) == 2
    acked = h.pipeline.stats.acked
    # Only the rounds still in flight and actually assigned, 3 and 4,
    # are counted.
    h.pipeline.on_ack("b1", 9)
    assert h.pipeline.acked_through["b1"] == 9
    assert h.pipeline.stats.acked - acked == 2


def test_cumulative_ack_below_pruned_watermark_is_noop():
    h = PipelineHarness(backups=("b1",))
    h.submit_rounds(3)
    h.pipeline.on_ack("b1", 1)
    h.pipeline.on_ack("b1", 3)  # settles everything: history pruned
    acked = h.pipeline.stats.acked
    h.pipeline.on_ack("b1", 2)
    assert h.pipeline.acked_through["b1"] == 3
    assert h.pipeline.stats.acked == acked
    assert h.pipeline.settled_through == 3
    assert h.pipeline.history == {}


# -- the pipeline -----------------------------------------------------------


def test_open_flush_ships_immediately_on_empty_pipe():
    h = PipelineHarness()
    event = h.pipeline.submit(tagged(b"round-1"))
    assert [(f[2], len(f[3])) for f in h.frames] == [(1, 1)]
    assert not event.triggered
    h.ack_all(1)
    assert event.triggered
    assert h.pipeline.idle


def test_rounds_coalesce_while_a_frame_is_in_flight():
    h = PipelineHarness()
    first = h.pipeline.submit(tagged(b"a"))
    second = h.pipeline.submit(tagged(b"b"))
    third = h.pipeline.submit(tagged(b"c"))
    # Only the open flush went out; b and c are queued behind it.
    assert len(h.frames) == 1
    h.ack_all(1)
    # The drained pipe triggers one combined frame: sequences 2..3.
    assert len(h.frames) == 2
    _now, targets, start, rounds = h.frames[1]
    assert (start, tags(rounds)) == (2, [b"b", b"c"])
    assert first.triggered and not second.triggered and not third.triggered
    h.ack_all(3)
    assert second.triggered and third.triggered


def test_size_threshold_forces_flush():
    h = PipelineHarness(max_rounds=2)
    h.pipeline.submit(tagged(b"a"))  # open flush
    h.pipeline.submit(tagged(b"b"))
    h.pipeline.submit(tagged(b"c"))  # hits max_rounds -> size flush
    assert [f[2] for f in h.frames] == [1, 2]
    assert h.pipeline.highest_flushed == 3


def test_reply_released_only_at_full_watermark():
    # One lagging backup holds every parked reply at or above its gap.
    h = PipelineHarness()
    event = h.pipeline.submit(tagged(b"a"))
    h.pipeline.on_ack("b1", 1)
    assert not event.triggered
    h.pipeline.on_ack("b2", 1)
    assert event.triggered


def test_duplicate_and_reordered_acks_do_not_regress_watermark():
    h = PipelineHarness()
    events = [h.pipeline.submit(tagged(tag)) for tag in (b"a", b"b", b"c")]
    h.ack_all(1)
    h.pipeline.flush("drain")
    h.ack_all(3)
    assert all(event.triggered for event in events)
    assert h.pipeline.settled_through == 3
    # Late, stale, and duplicate acks (retransmission crossings) are noise.
    h.pipeline.on_ack("b1", 2)
    h.pipeline.on_ack("b2", 3)
    assert h.pipeline.settled_through == 3
    assert h.pipeline.idle


def test_ack_for_pruned_sequences_is_harmless():
    h = PipelineHarness()
    h.pipeline.submit(tagged(b"a"))
    h.ack_all(1)
    assert h.pipeline.history == {}  # settled history pruned
    h.ack_all(1)  # re-ack after prune
    assert h.pipeline.settled_through == 1
    assert h.pipeline.idle


def test_backup_removed_mid_round_stops_gating_replies():
    h = PipelineHarness()
    event = h.pipeline.submit(tagged(b"a"))
    h.pipeline.on_ack("b1", 1)
    assert not event.triggered  # b2 still owes an ack
    h.backups.remove("b2")  # failover/migration dropped it
    h.pipeline.on_config_change()
    assert event.triggered
    assert h.pipeline.idle


def test_all_backups_removed_settles_everything():
    h = PipelineHarness()
    event = h.pipeline.submit(tagged(b"a"))
    h.backups.clear()
    h.pipeline.on_config_change()
    assert event.triggered


def test_config_change_drains_queued_rounds_to_new_membership():
    h = PipelineHarness()
    h.pipeline.submit(tagged(b"a"))
    h.pipeline.submit(tagged(b"b"))  # queued behind the in-flight frame
    h.backups.append("b3")
    h.pipeline.on_config_change()
    # The drain flush ships to the veterans; b3 gets a full-range frame
    # starting at the oldest unsettled sequence.
    assert len(h.frames) == 3
    _now, targets, start, rounds = h.frames[2]
    assert targets == ["b3"]
    assert (start, len(rounds)) == (1, 2)


def test_fresh_backup_never_sent_does_not_hold_watermark():
    h = PipelineHarness()
    event = h.pipeline.submit(tagged(b"a"))
    h.backups.append("b3")  # joined after the flush; needs state transfer
    h.pipeline.on_ack("b1", 1)
    h.pipeline.on_ack("b2", 1)
    assert event.triggered


def test_barrier_parks_until_watermark_and_passes_when_quiescent():
    h = PipelineHarness()
    assert h.pipeline.barrier().triggered  # nothing outstanding
    h.pipeline.submit(tagged(b"a"))
    barrier = h.pipeline.barrier()
    assert not barrier.triggered
    h.ack_all(1)
    assert barrier.triggered


def test_watchdog_retransmits_only_the_lagging_backup_with_backoff():
    h = PipelineHarness()
    h.pipeline.submit(tagged(b"a"))
    h.pipeline.on_ack("b1", 1)  # b2 never answers
    h.sim.run(until=100.0)
    retries = [f for f in h.frames[1:]]
    assert retries and all(f[1] == ["b2"] for f in retries)
    assert all((f[2], tags(f[3])) == (1, [b"a"]) for f in retries)
    assert h.pipeline.stats.retransmitted == len(retries)
    gaps = [b[0] - a[0] for a, b in zip(retries, retries[1:])]
    # Exponential backoff: strictly increasing gaps, capped at 8x + jitter.
    assert all(later > earlier for earlier, later in zip(gaps, gaps[1:])) or len(gaps) < 2
    assert all(gap <= 5.0 * 8 * 1.25 + 1e-9 for gap in gaps)


def test_retired_pipeline_ships_and_settles_nothing():
    # Failover deposed this primary mid-round: it must not retransmit
    # stale frames over the new primary's stream, must not drain queued
    # rounds, and must not release parked replies — even when every
    # straggler acks (or leaves the replica set) afterwards.
    h = PipelineHarness()
    event = h.pipeline.submit(tagged(b"a"))  # open flush: in flight
    queued = h.pipeline.submit(tagged(b"b"))  # queued behind it
    h.pipeline.retire()
    h.pipeline.on_config_change()  # NewConfig adoption after deposal
    h.ack_all(1)
    assert h.pipeline.acked_through == {"b1": 1, "b2": 1}  # facts still land
    assert not event.triggered and not queued.triggered
    h.backups.clear()  # even an emptied backup set settles nothing
    h.pipeline.on_config_change()
    h.sim.run(until=300.0)  # watchdog wakes and exits; no retransmission
    assert len(h.frames) == 1
    assert h.pipeline.stats.retransmitted == 0
    assert not event.triggered


def test_unretire_resumes_where_the_sequence_space_left_off():
    # Re-promotion: the kept queue drains to the new membership and the
    # recorded acks settle the pre-deposal rounds.
    h = PipelineHarness()
    first = h.pipeline.submit(tagged(b"a"))
    h.pipeline.retire()
    second = h.pipeline.submit(tagged(b"b"))  # queued while retired; no frame
    assert len(h.frames) == 1
    h.pipeline.unretire()
    h.pipeline.on_config_change()
    assert [f[2] for f in h.frames] == [1, 2]
    h.ack_all(2)
    assert first.triggered and second.triggered
    assert h.pipeline.idle


def test_watchdog_stops_once_settled_and_restarts_on_next_flush():
    h = PipelineHarness()
    h.pipeline.submit(tagged(b"a"))
    h.sim.run(until=7.0)  # one watchdog wake with no progress
    h.ack_all(1)
    h.sim.run(until=60.0)
    settled_frames = len(h.frames)
    h.sim.run(until=200.0)
    assert len(h.frames) == settled_frames  # no zombie watchdog traffic
    event = h.pipeline.submit(tagged(b"b"))
    h.ack_all(2)
    assert event.triggered


# -- end to end --------------------------------------------------------------


def test_failover_retires_the_deposed_primary_pipeline():
    # Crash the primary, let the coordinator promote a backup, then bring
    # the old primary back: adopting the post-failover config must retire
    # its pipeline (it no longer leads the shard), while the promoted
    # node's replication keeps serving writes.
    sim, cluster = build_cluster(seed=17)
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    for expected in (1, 2, 3):
        assert cluster.run_invoke(client, oid, "increment", 1) == expected
    old_primary = cluster.nodes["store-0"]
    assert old_primary.pipelines
    assert not any(p.retired for p in old_primary.pipelines.values())
    cluster.crash_node("store-0")
    assert cluster.run_invoke(client, oid, "increment", 1) == 4
    epoch, shard_map = cluster.current_config()
    assert shard_map.replica_sets[0].primary == "store-1"
    cluster.recover_node("store-0")
    old_primary.install_config(epoch, shard_map.copy())
    assert all(p.retired for p in old_primary.pipelines.values())
    new_primary = cluster.nodes["store-1"]
    assert not any(p.retired for p in new_primary.pipelines.values())
    assert cluster.run_invoke(client, oid, "increment", 1) == 5


def test_lone_commit_ships_one_range_frame_per_backup():
    sim, cluster = build_cluster(seed=92)
    sent = []
    cluster.net.tap = lambda message: sent.append(type(message.payload).__name__)
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    cluster.run_invoke(client, oid, "increment", 1)
    sim.run(until=sim.now + 5)
    assert sent.count("ReplicateWritesRange") == 2  # two backups
    assert sent.count("ReplicateAck") >= 2


def rounds_and_frames(**config):
    """(replication rounds, frames flushed) after eight clients each
    increment their own counter three times at once."""
    sim, cluster = build_cluster(seed=23, **config)
    oids = [cluster.create_object("Counter") for _ in range(8)]

    def increments(client, oid):
        for _ in range(3):
            yield from client.invoke(oid, "increment", 1)

    processes = [
        sim.process(increments(cluster.client(f"c{index}"), oid))
        for index, oid in enumerate(oids)
    ]
    sim.run_until_triggered(sim.all_of(processes), limit=sim.now + 60_000)
    families = cluster.metrics.families()
    return tuple(
        sum(counter.value for counter in families[name])
        for name in ("node_replication_rounds", "replication_flush_total")
    )


def test_one_round_per_frame_ships_every_round_alone():
    # The default coalesces this load: fewer frames than rounds.  At
    # max_rounds=1 every round is flushed as a frame of its own.
    rounds, frames = rounds_and_frames()
    assert rounds > frames
    rounds, frames = rounds_and_frames(group_commit_max_rounds=1)
    assert rounds == 24  # one round per mutating invocation
    assert frames == rounds


def test_primary_read_of_unsettled_round_parks_on_read_barrier():
    # With group commit off the lock is still released at local commit,
    # so a primary read can see a round no backup has acked: its reply
    # must park on the settlement watermark, not return at once.
    sim, cluster = build_cluster(
        seed=31, group_commit_max_rounds=1, replica_reads=False
    )
    tracer = cluster.enable_tracing()
    oid = cluster.create_object("Counter")
    primary = cluster.current_config()[1].shard_for(oid).primary
    dropped = []

    def drop_first_ack(message):
        # Holds the round unsettled until the watchdog retransmits.
        if type(message.payload) is ReplicateAck and not dropped:
            dropped.append(message.payload)
            return True
        return False

    cluster.net.drop_filter = drop_first_ack
    writer, reader = cluster.client("w"), cluster.client("r")

    def read_after_commit():
        yield sim.timeout(1.0)
        return (yield from reader.invoke(oid, "read"))

    write = sim.process(writer.invoke(oid, "increment", 1))
    read = sim.process(read_after_commit())
    values = sim.run_until_triggered(sim.all_of([write, read]), limit=sim.now + 60_000)
    assert dropped
    assert values[read] == 1
    barriers = [span for span in tracer.spans if span.name == "read.barrier"]
    assert [span.node for span in barriers] == [primary]
    assert barriers[0].duration_ms > 1.0
