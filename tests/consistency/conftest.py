"""Shared helpers for the chaos/consistency suite."""

from repro.cluster.messages import ReplicateAck
from repro.cluster.replication import BackupApplier
from repro.kvstore.batch import WriteBatch
from repro.sim import BimodalLatency


def legacy_on_replicate(self, message):
    """The seed's buggy ``StoreNode._on_replicate``, for revert tests.

    Its flaw: when ``receive`` drains buffered out-of-order sequences, only
    the keys of *this message's* batches are invalidated — the drained
    sequences' writes silently miss cache invalidation, leaving entries
    whose read sets no longer match storage.
    """
    applier = self.backup_appliers.get(message.shard_id)
    if applier is None or getattr(applier, "primary", None) != message.primary:
        applier = BackupApplier(message.shard_id, self.runtime.storage.apply)
        applier.primary = message.primary
        self.backup_appliers[message.shard_id] = applier
    applied = applier.receive(message.sequence, message.batches)
    if applied and self.runtime.cache is not None:
        for _sequence, _batches in applied:
            for payload in message.batches:
                batch = WriteBatch.decode(payload)
                self.runtime.cache.invalidate_keys(
                    [key for _kind, key, _value in batch.items()]
                )
    for sequence, _batches in applied:
        reply = ReplicateAck(message.shard_id, sequence, self.name)
        self.net.send(self.name, message.primary, reply, size_bytes=reply.size())


def use_bimodal_latency(cluster):
    """``post_build`` hook: aggressive reordering on every link."""
    cluster.net.latency = BimodalLatency(fast_ms=0.05, slow_ms=2.0, slow_probability=0.3)
