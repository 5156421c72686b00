"""Unit tests for primary/backup replication state machines."""

from repro.cluster.replication import BackupApplier
from repro.core.storage import MemoryBackend
from repro.kvstore.batch import Round, WriteBatch
from repro.obs import MetricsRegistry

from tests.cluster.conftest import PipelineHarness, tagged, tags


def encoded(*writes):
    """One round of one batch per ``(key, value)`` write."""
    return Round.of([WriteBatch().put(key, value) for key, value in writes])


def make_applier():
    backend = MemoryBackend()
    return BackupApplier(0, "p", backend.apply), backend


def test_primary_assigns_increasing_sequences():
    h = PipelineHarness()
    h.pipeline.submit(tagged(b"a"))
    h.pipeline.submit(tagged(b"b"))
    assert list(h.pipeline.history) == [1, 2]
    assert tags(h.pipeline.history.values()) == [b"a", b"b"]
    assert h.pipeline.last_assigned == 2


def test_primary_tracks_acks():
    h = PipelineHarness()
    h.submit_rounds(1)
    h.ack_all(1)
    assert h.pipeline.acked_through == {"b1": 1, "b2": 1}
    assert h.pipeline.stats.acked == 2


def test_primary_complete_through_drops_history():
    h = PipelineHarness(backups=("b1",))
    h.submit_rounds(3)
    h.pipeline.on_ack("b1", 1)
    h.pipeline.on_ack("b1", 2)
    assert h.pipeline.settled_through == 2
    assert list(h.pipeline.history) == [3]
    # Acks for the pruned prefix are facts, but no longer in-flight rounds.
    acked = h.pipeline.stats.acked
    h.pipeline.on_ack("b2", 3)
    assert h.pipeline.stats.acked - acked == 1


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
    assert applier.receive(1, encoded((b"k", b"v1"))) == [(1, None)]
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


def test_each_role_registers_only_the_counters_it_writes():
    pipeline_registry, applier_registry = MetricsRegistry(), MetricsRegistry()
    PipelineHarness(registry=pipeline_registry, labels={"role": "primary"})
    BackupApplier(0, "p", MemoryBackend().apply, registry=applier_registry)
    assert set(pipeline_registry.families()) == {
        "replication_shipped",
        "replication_acked",
        "replication_retransmitted",
        "replication_flush_total",
    }
    assert set(applier_registry.families()) == {
        "replication_applied",
        "replication_buffered_out_of_order",
    }


def _overwrite(key, value):
    batch = WriteBatch()
    batch.put(key, value)
    return batch
