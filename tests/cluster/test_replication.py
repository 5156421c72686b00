"""Unit tests for primary/backup replication state machines."""

from repro.cluster.replication import BackupApplier, PrimaryReplicationLog
from repro.core.storage import MemoryBackend
from repro.kvstore.batch import WriteBatch, encode_round


def encoded(*writes):
    """One encoded round of one batch per ``(key, value)`` write."""
    return encode_round([WriteBatch().put(key, value) for key, value in writes])[0]


def make_applier():
    backend = MemoryBackend()
    return BackupApplier(0, "p", backend.apply), backend


def test_primary_assigns_increasing_sequences():
    log = PrimaryReplicationLog(0)
    s1 = log.next_sequence(b"a")
    s2 = log.next_sequence(b"b")
    assert (s1, s2) == (1, 2)
    assert log.last_assigned == 2


def test_primary_tracks_acks():
    log = PrimaryReplicationLog(0)
    sequence = log.next_sequence(b"x")
    assert log.record_cumulative_ack("b1", sequence)
    assert log.record_cumulative_ack("b2", sequence)
    assert log.acked_through == {"b1": sequence, "b2": sequence}
    assert log.stats.acked == 2


def test_primary_complete_through_drops_history():
    log = PrimaryReplicationLog(0)
    for _ in range(3):
        log.next_sequence(b"x")
    log.complete_through(2)
    assert log.completed_through == 2
    assert log.retained == 1
    assert 3 in log.history and 1 not in log.history
    # Acks for the pruned prefix are facts, but no longer in-flight rounds.
    log.record_cumulative_ack("b1", 3)
    assert log.stats.acked == 1


def applied_sequences(applied):
    return [sequence for sequence, _batches in applied]


def test_backup_applies_in_order():
    applier, backend = make_applier()
    assert applied_sequences(applier.receive(1, encoded((b"k1", b"v1")))) == [1]
    assert applied_sequences(applier.receive(2, encoded((b"k2", b"v2")))) == [2]
    assert backend.get(b"k1") == b"v1"
    assert backend.get(b"k2") == b"v2"


def test_backup_buffers_out_of_order():
    applier, backend = make_applier()
    assert applier.receive(2, encoded((b"k2", b"v2"))) == []
    assert backend.get(b"k2") is None
    assert applier.pending_count == 1
    assert applied_sequences(applier.receive(1, encoded((b"k1", b"v1")))) == [1, 2]
    assert backend.get(b"k2") == b"v2"


def test_receive_reports_batches_of_drained_sequences():
    # The caller needs the *batches* of every applied sequence — including
    # ones drained from the out-of-order buffer — to invalidate caches.
    applier, _backend = make_applier()
    second = encoded((b"k2", b"v2"))
    first = encoded((b"k1", b"v1"))
    assert applier.receive(2, second) == []
    assert applier.receive(1, first) == [(1, first), (2, second)]


def test_backup_acks_duplicates_without_reapplying():
    applier, backend = make_applier()
    applier.receive(1, encoded((b"k", b"v1")))
    backend.apply(_overwrite(b"k", b"local"))
    assert applier.receive(1, encoded((b"k", b"v1"))) == [(1, b"")]
    assert backend.get(b"k") == b"local"  # duplicate did not reapply


def test_multiple_batches_per_sequence():
    applier, backend = make_applier()
    applier.receive(1, encoded((b"a", b"1"), (b"b", b"2")))
    assert backend.get(b"a") == b"1"
    assert backend.get(b"b") == b"2"


def test_stats():
    applier, _backend = make_applier()
    applier.receive(2, encoded((b"x", b"1")))
    applier.receive(1, encoded((b"y", b"2")))
    assert applier.stats.applied == 2
    assert applier.stats.buffered_out_of_order == 1


def _overwrite(key, value):
    batch = WriteBatch()
    batch.put(key, value)
    return batch
