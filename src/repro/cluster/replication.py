"""Primary-backup replication state machines (paper §4.2.1).

The primary executes mutating invocations, then ships the committed write
batches — not the function — to every backup with a per-shard sequence
number.  Backups apply strictly in order, buffering out-of-order arrivals
(the network may reorder).  The primary replies to the client once every
live backup acked, so a read at *any* replica after the client observed
the reply sees the write: that is what makes replica reads consistent.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.cluster.messages import ReplicateAck
from repro.kvstore.batch import WriteBatch, decode_round
from repro.obs.registry import MetricsRegistry, StatsView


class ReplicationStats(StatsView):
    """Replication counters, per log/applier.

    ``retransmitted`` counts retransmission rounds separately from
    ``shipped`` (which counts first-time sequence assignments only).
    """

    PREFIX = "replication"
    COUNTERS = {
        "shipped": 0,
        "acked": 0,
        "applied": 0,
        "buffered_out_of_order": 0,
        "retransmitted": 0,
    }


class PrimaryReplicationLog:
    """Primary-side sequence assignment and ack tracking.

    History entries are retained only while their replication round is in
    flight: :meth:`complete_through` advances the settlement watermark and
    prunes everything at or below it, so the log's memory is bounded by
    the number of concurrently outstanding rounds instead of growing for
    the node's lifetime.
    """

    def __init__(
        self,
        shard_id: int,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[dict] = None,
    ) -> None:
        self.shard_id = shard_id
        self._next_sequence = 1
        #: backup name -> highest cumulatively-acked sequence
        self.acked_through: dict[str, int] = {}
        #: sequence -> encoded round (:func:`~repro.kvstore.batch.encode_round`),
        #: kept for retransmission while the round is outstanding
        self.history: dict[int, bytes] = {}
        #: every sequence <= this has finished replicating and been pruned
        self.completed_through = 0
        self.stats = ReplicationStats(registry, labels)
        # per-round counters: preresolved cells, one slot add each
        self._c_shipped = self.stats.cell("shipped")
        self._c_acked = self.stats.cell("acked")

    def next_sequence(self, payload: bytes) -> int:
        """Assign the next shard sequence number to a committed round."""
        sequence = self._next_sequence
        self._next_sequence += 1
        self.history[sequence] = payload
        self._c_shipped.inc()
        return sequence

    @property
    def last_assigned(self) -> int:
        return self._next_sequence - 1

    def record_cumulative_ack(self, backup: str, applied_through: int) -> bool:
        """Record that ``backup`` has applied every sequence up to and
        including ``applied_through``.  Returns True when this advanced
        the backup's watermark (stale/duplicate acks return False).

        ``stats.acked`` counts each (sequence, backup) pair once, and only
        for rounds still in flight: those above both the backup's previous
        watermark and the pruned prefix, up to the last one assigned."""
        previous = self.acked_through.get(backup, 0)
        if applied_through <= previous:
            return False
        self.acked_through[backup] = applied_through
        newly_acked = min(applied_through, self.last_assigned) - max(
            previous, self.completed_through
        )
        if newly_acked > 0:
            self._c_acked.inc(newly_acked)
        return True

    def complete_through(self, sequence: int) -> None:
        """Every sequence up to and including ``sequence`` finished
        replicating (acked by every live backup, or the stragglers left
        the replica set): advance the watermark and prune its history."""
        if sequence <= self.completed_through:
            return
        for done in range(self.completed_through + 1, sequence + 1):
            self.history.pop(done, None)
        self.completed_through = sequence

    @property
    def retained(self) -> int:
        """History entries still held for in-flight rounds."""
        return len(self.history)


class BackupApplier:
    """Backup-side in-order application with out-of-order buffering."""

    def __init__(
        self,
        shard_id: int,
        primary: str,
        apply_fn: Callable[[WriteBatch], None],
        start_sequence: int = 0,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[dict] = None,
    ) -> None:
        self.shard_id = shard_id
        #: the primary whose sequence space this applier follows
        self.primary = primary
        self._apply = apply_fn
        self.applied_through = start_sequence
        self._pending: dict[int, bytes] = {}
        self.stats = ReplicationStats(registry, labels)
        self._c_applied = self.stats.cell("applied")
        self._c_buffered = self.stats.cell("buffered_out_of_order")

    def receive(self, sequence: int, payload: bytes) -> list[tuple[int, bytes]]:
        """Accept a replicated round; returns ``(sequence, payload)`` pairs
        applied right now — including sequences drained from the
        out-of-order buffer, whose writes the caller must still see (e.g.
        for cache invalidation of the keys they wrote).

        Duplicates (retransmissions) of already-applied sequences are not
        reapplied but still reported (with an empty payload) so the
        primary gets a (re-)ack.
        """
        if sequence <= self.applied_through:
            return [(sequence, b"")]  # duplicate: ack again, apply nothing
        self._pending[sequence] = payload
        applied: list[tuple[int, bytes]] = []
        while self.applied_through + 1 in self._pending:
            next_sequence = self.applied_through + 1
            next_payload = self._pending.pop(next_sequence)
            # decode_round: the primary that encoded this round entered
            # its batches in the memo, so every backup of the shard
            # applies those read-only batches, one by one and in commit
            # order, without parsing.
            for batch in decode_round(next_payload)[0]:
                self._apply(batch)
            self.applied_through = next_sequence
            self._c_applied.inc()
            applied.append((next_sequence, next_payload))
        if not applied:
            self._c_buffered.inc()
        return applied

    @property
    def pending_count(self) -> int:
        return len(self._pending)


#: flush-trigger reasons, pre-registered so the counters exist at zero
FLUSH_REASONS = ("open", "size", "timer", "ack", "drain")

#: group-commit frames carry at most this many rounds by default
DEFAULT_MAX_ROUNDS = 32
DEFAULT_MAX_BYTES = 64 * 1024
#: backstop flush interval (simulated ms) while earlier frames are in flight
DEFAULT_FLUSH_INTERVAL_MS = 0.25
#: how long a primary waits for a backup's ack before retransmitting; the
#: storage node derives its lease-query, read-park and remote-charge
#: timings from it
ACK_TIMEOUT_MS = 5.0


class BackupAcks:
    """How one backup node acks the frames it applied.

    Without transport coalescing every frame gets its own cumulative
    :class:`ReplicateAck`.  With it (§5j) the ack is deferred: it leaves
    either piggybacked on the next coalesced wire message toward the
    primary, or on the ``flush_ms`` fallback timer, whichever fires
    first.  Later watermarks for the same shard overwrite earlier ones,
    which is exactly what cumulative acks allow.  ``renewal_query(shard,
    primary)`` may add a lease renewal to each drained ack (§5g state
    rides along for free)."""

    def __init__(
        self,
        node: Any,
        coalescing: bool,
        flush_ms: float,
        renewal_query: Callable[[int, str], Any],
    ) -> None:
        self.node = node
        self._coalescing = coalescing
        #: clamped to half the ack timeout so deferral never looks like
        #: ack loss to the primary's watchdog
        self.flush_ms = min(flush_ms, ACK_TIMEOUT_MS / 2)
        self._renewal_query = renewal_query
        #: primary name -> {shard_id: applied_through} awaiting send;
        #: cumulative, so the latest watermark per shard wins
        self.pending: dict[str, dict[int, int]] = {}
        #: destinations with a fallback ack timer currently armed
        self._timer_armed: set[str] = set()
        if coalescing:
            # Any coalesced wire message leaving the node carries the
            # deferred watermarks for free.
            node.endpoint.set_piggyback_provider(self._piggyback_frames)

    def ack(self, primary: str, shard_id: int, applied_through: int) -> None:
        """Acknowledge everything through ``applied_through`` on
        ``shard_id`` to ``primary``: now, or deferred under coalescing."""
        node = self.node
        if not self._coalescing:
            node.endpoint.send(primary, ReplicateAck(shard_id, applied_through, node.name))
            return
        pending = self.pending.get(primary)
        if pending is None:
            pending = self.pending[primary] = {}
        pending[shard_id] = applied_through
        node.stats.acks_deferred += 1
        if primary not in self._timer_armed:
            self._timer_armed.add(primary)
            node.sim._schedule(self.flush_ms, lambda dst=primary: self._flush(dst))

    def clear(self) -> None:
        """Drop every deferred ack (the node crashed)."""
        self.pending.clear()

    def snapshot(self) -> tuple:
        """The deferred acks as a sorted, hashable tuple."""
        return tuple(
            sorted((b, tuple(sorted(acks.items()))) for b, acks in self.pending.items())
        )

    def _drain(self, dst: str) -> list:
        """Pop every deferred ack bound for ``dst`` as ``(payload,
        size_bytes)`` frames.  Shared by the piggyback provider and the
        fallback timer so whichever fires first wins and the other is a
        no-op."""
        pending = self.pending.pop(dst, None)
        if not pending:
            return []
        frames = []
        for shard_id, applied_through in pending.items():
            ack = ReplicateAck(shard_id, applied_through, self.node.name)
            frames.append((ack, ack.size()))
            query = self._renewal_query(shard_id, dst)
            if query is not None:
                frames.append((query, query.size()))
        return frames

    def _piggyback_frames(self, dst: str):
        """Network-side piggyback provider: called once per outbound
        coalesced wire message, drains any acks waiting for ``dst``."""
        if self.node.crashed:
            return None
        frames = self._drain(dst)
        if not frames:
            return None
        self.node.stats.acks_piggybacked += sum(
            1 for payload, _size in frames if type(payload) is ReplicateAck
        )
        return frames

    def _flush(self, dst: str) -> None:
        """Fallback timer path: no reverse-direction traffic showed up
        within ``flush_ms``, so send the deferred acks as their own
        frames (the egress coalescer still packs them into one wire
        message per destination)."""
        node = self.node
        self._timer_armed.discard(dst)
        if node.crashed:
            self.pending.pop(dst, None)
            return
        frames = self._drain(dst)
        if not frames:
            return
        node.stats.acks_timer_flushed += sum(
            1 for payload, _size in frames if type(payload) is ReplicateAck
        )
        send = node.endpoint.send
        for payload, size_bytes in frames:
            send(dst, payload, size_bytes=size_bytes)


class ReplicationPipeline:
    """Primary-side group-commit pipeline for one shard (§4.2.1 + group
    commit).

    Committed write sets from concurrent invocations of *different*
    objects are coalesced into :class:`ReplicateWritesRange` frames
    carrying a contiguous sequence run.  Backups answer with cumulative
    acks; the pipeline's settlement watermark is the minimum
    ``applied_through`` over the live backups it has shipped to, and each
    parked client reply is released once the watermark reaches its own
    sequence — every sequence <= its own is then acked by all live
    backups, the paper's reply condition, so invocation linearizability
    (§3.1) is preserved.  ``max_rounds=1`` turns coalescing off: every
    round ships alone in its own frame, through the same settlement,
    read barriers and gap repair.

    Flush triggers: ``open`` (nothing in flight — send immediately, no
    added latency at low load), ``size`` (round/byte threshold), ``ack``
    (the pipe drained while commits queued — classic group commit: one
    frame per replication round trip under load), ``timer`` (backstop so
    a lost ack cannot strand queued commits), and ``drain``
    (reconfiguration).  Gaps are repaired by a per-backup watchdog that
    retransmits exactly the missing range with exponential backoff and
    jitter, instead of fixed-interval full re-sends.
    """

    def __init__(
        self,
        sim,
        shard_id: int,
        log: PrimaryReplicationLog,
        send_frame: Callable[[list[str], int, list[bytes]], None],
        backups_fn: Callable[[], list[str]],
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        max_bytes: int = DEFAULT_MAX_BYTES,
        flush_interval_ms: float = DEFAULT_FLUSH_INTERVAL_MS,
        ack_timeout_ms: float = ACK_TIMEOUT_MS,
        name: str = "",
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[dict] = None,
    ) -> None:
        self.sim = sim
        self.shard_id = shard_id
        self.log = log
        self._send_frame = send_frame
        self._backups_fn = backups_fn
        self._max_rounds = max(1, max_rounds)
        self._max_bytes = max(1, max_bytes)
        self._flush_interval = flush_interval_ms
        self._ack_timeout = ack_timeout_ms
        self._name = name or f"shard-{shard_id}"
        #: (sequence, round payload) committed but not yet framed
        self._pending: list[tuple[int, bytes]] = []
        self._pending_bytes = 0
        #: sequence -> park event for the client reply (ascending keys)
        self._waiters: dict[int, object] = {}
        #: sequence -> read-barrier events parked on the watermark
        self._barriers: dict[int, list] = {}
        self.highest_flushed = 0
        self.settled_through = 0
        #: backups ever shipped a frame (never-sent members need a state
        #: transfer, not log replay, so they don't hold the watermark)
        self._ever_sent: set[str] = set()
        self._timer_generation = 0
        self._timer_armed = False
        self._watchdog_running = False
        #: set when this node stops being the shard's primary (failover,
        #: migration): a retired pipeline ships nothing and settles nothing
        self._retired = False
        #: object-id prefix -> last unsettled sequence that wrote it, for
        #: per-object read barriers (pruned as the watermark advances)
        self._dirty_last: dict[bytes, int] = {}
        #: jitter stream, created lazily on the first retransmission so
        #: faultless runs never touch it
        self._retry_rng = None
        self._flush_counters = None
        if registry is not None:
            self._flush_counters = {
                reason: registry.counter(
                    "replication_flush_total", {**(labels or {}), "reason": reason}
                )
                for reason in FLUSH_REASONS
            }

    # -- state ----------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Rounds flushed but not yet settled by every live backup."""
        return self.highest_flushed - self.settled_through

    @property
    def idle(self) -> bool:
        return (
            not self._pending
            and not self._waiters
            and not self._barriers
            and self.in_flight == 0
        )

    @property
    def retired(self) -> bool:
        return self._retired

    def retire(self) -> None:
        """This node stopped being the shard's primary (failover promoted
        a backup, or the shard left the map).  A retired pipeline ships
        nothing — no drain flush, no watchdog retransmission of stale
        frames over the new primary's stream — and settles nothing:
        releasing a parked reply against the *new* backup set could
        acknowledge a write only departed stragglers ever applied.  Late
        acks still land on the log (facts are monotonic), and queued
        rounds are kept so a later re-promotion resumes the sequence
        space where it left off."""
        self._retired = True
        # Cancel any armed backstop flush.
        self._timer_generation += 1
        self._timer_armed = False

    def unretire(self) -> None:
        """Re-promotion: resume shipping (caller follows up with
        :meth:`on_config_change` to drain and re-settle)."""
        self._retired = False

    def barrier(self, sequence: Optional[int] = None):
        """Event that fires once the settlement watermark covers
        ``sequence`` (default: every sequence assigned so far).

        Used by primary-side reads: with the object lock released at
        local commit, a read at the primary can observe writes no backup
        has acked yet; parking its reply behind the watermark keeps the
        paper's §3.1 guarantee — no client observes a result derived from
        state that could still be lost on failover without any reply
        having been released for it.
        """
        if sequence is None:
            sequence = self.log.last_assigned
        event = self.sim.event(name=f"repl-barrier:{self._name}:{sequence}")
        if sequence <= 0:
            event.succeed()
            return event
        if sequence <= self.settled_through:
            event.succeed()
        else:
            # Keys stay in ascending order (last_assigned is monotonic),
            # which lets _settle stop scanning at the first unsettled one.
            self._barriers.setdefault(sequence, []).append(event)
        return event

    def required_for(self, objects) -> int:
        """The highest unsettled sequence that wrote any of ``objects``
        (0 when every listed object is clean): the per-object read
        barrier a read touching exactly these objects must wait for."""
        dirty = self._dirty_last
        required = 0
        for obj in objects:
            sequence = dirty.get(obj, 0)
            if sequence > required:
                required = sequence
        return required

    # -- commit path -----------------------------------------------------------

    def submit(self, payload: bytes, objects: tuple = ()):
        """Enqueue a committed round (one :func:`encode_round` payload);
        returns the event that fires once every sequence <= this round's
        is acked by all live backups.  ``objects`` lists the ids of the
        objects the round wrote, driving per-object read barriers here
        (backups derive the same list from the payload)."""
        sequence = self.log.next_sequence(payload)
        for obj in objects:
            self._dirty_last[obj] = sequence
        event = self.sim.event(name=f"repl:{self._name}:{sequence}")
        self._waiters[sequence] = event
        self._pending.append((sequence, payload))
        # What ships is the encoded round, so that is what counts.
        self._pending_bytes += len(payload)
        if self._retired:
            # Deposed primary: the round is queued (and resumes on a
            # re-promotion) but nothing ships and no timer arms.
            return event
        if (
            len(self._pending) >= self._max_rounds
            or self._pending_bytes >= self._max_bytes
        ):
            self.flush("size")
        elif self.in_flight == 0:
            # Pipe is empty: waiting would only add latency.
            self.flush("open")
        elif not self._timer_armed:
            self._arm_timer()
        return event

    def flush(self, reason: str) -> None:
        """Frame and ship every pending round to the current backups."""
        if self._retired or not self._pending:
            return
        first = self._pending[0][0]
        rounds = [payload for _sequence, payload in self._pending]
        self._pending.clear()
        self._pending_bytes = 0
        self._timer_generation += 1
        self._timer_armed = False
        self.highest_flushed = first + len(rounds) - 1
        if self._flush_counters is not None:
            self._flush_counters[reason].inc()
        targets = list(self._backups_fn())
        if targets:
            behind = [t for t in targets if t in self._ever_sent] or targets
            # A backup seeing its first frame must not start mid-stream:
            # extend its frame back to the oldest unsettled sequence.
            fresh = [t for t in targets if t not in self._ever_sent]
            self._send_frame(behind, first, rounds)
            if fresh and behind is not targets:
                start = self.settled_through + 1
                full = [self.log.history[s] for s in range(start, self.highest_flushed + 1)]
                self._send_frame(fresh, start, full)
            self._ever_sent.update(targets)
            if not self._watchdog_running:
                # Flag set here, not inside the generator: two flushes at
                # one instant must not spawn two watchdogs.
                self._watchdog_running = True
                self.sim.process(self._watchdog(), name=f"repl-watchdog:{self._name}")
        self._settle()

    # -- acks ------------------------------------------------------------------

    def on_ack(self, backup: str, applied_through: int) -> None:
        advanced = self.log.record_cumulative_ack(backup, applied_through)
        if self._retired:
            return
        if advanced:
            self._settle()
        if self._pending and self.in_flight == 0:
            # The pipe drained while commits queued up — ship them as one
            # frame (group commit: one frame per replication round trip).
            self.flush("ack")

    def on_config_change(self) -> None:
        """Reconfiguration: re-evaluate the watermark against the new
        backup set (removed stragglers no longer gate replies) and drain
        any queued rounds so the new membership sees them promptly."""
        self._settle()
        if self._pending:
            self.flush("drain")

    def _settle(self) -> None:
        if self._retired:
            return
        backups = [b for b in self._backups_fn() if b in self._ever_sent]
        if backups:
            watermark = min(self.log.acked_through.get(b, 0) for b in backups)
            watermark = min(watermark, self.highest_flushed)
        else:
            # No live backups shipped to: everything flushed is settled.
            watermark = self.highest_flushed
        if watermark <= self.settled_through:
            return
        self.settled_through = watermark
        self.log.complete_through(watermark)
        if self._dirty_last:
            for obj in [o for o, s in self._dirty_last.items() if s <= watermark]:
                del self._dirty_last[obj]
        released = []
        for sequence in self._waiters:  # ascending insertion order
            if sequence > watermark:
                break
            released.append(sequence)
        for sequence in released:
            event = self._waiters.pop(sequence)
            if not event.triggered:
                event.succeed()
        cleared = []
        for sequence in self._barriers:  # ascending insertion order
            if sequence > watermark:
                break
            cleared.append(sequence)
        for sequence in cleared:
            for event in self._barriers.pop(sequence):
                if not event.triggered:
                    event.succeed()

    # -- background processes --------------------------------------------------

    def _arm_timer(self) -> None:
        self._timer_armed = True
        self.sim.process(
            self._timer(self._timer_generation), name=f"repl-timer:{self._name}"
        )

    def _timer(self, generation: int):
        yield self.sim.timeout(self._flush_interval)
        if generation != self._timer_generation:
            return
        self._timer_armed = False
        if self._pending:
            self.flush("timer")

    def _progress_mark(self) -> tuple:
        return (self.settled_through, tuple(sorted(self.log.acked_through.items())))

    def _watchdog(self):
        """Targeted gap repair: while rounds are unsettled, retransmit each
        lagging backup exactly its missing range, with exponential backoff
        (reset on progress) + jitter, capped at 8x the ack timeout."""
        try:
            delay = self._ack_timeout
            cap = self._ack_timeout * 8
            last_progress = self._progress_mark()
            while True:
                yield self.sim.timeout(delay)
                if self._retired:
                    return  # deposed primary: stale frames stay unsent
                self._settle()
                if self.in_flight == 0:
                    return  # settled; restarted on the next flush
                mark = self._progress_mark()
                if mark != last_progress:
                    last_progress = mark
                    delay = self._ack_timeout
                    continue  # acks are flowing; no retransmission needed
                current = set(self._backups_fn())
                if not (current & self._ever_sent):
                    # Every shipped-to backup left the replica set.
                    self._settle()
                    if self.in_flight == 0:
                        return
                for backup in sorted(current & self._ever_sent):
                    acked = self.log.acked_through.get(backup, 0)
                    if acked >= self.highest_flushed:
                        continue
                    start = max(acked + 1, self.log.completed_through + 1)
                    rounds = [
                        self.log.history[s]
                        for s in range(start, self.highest_flushed + 1)
                        if s in self.log.history
                    ]
                    if rounds:
                        self._send_frame([backup], start, rounds)
                        self.log.stats.retransmitted += 1
                if self._retry_rng is None:
                    self._retry_rng = self.sim.rng(f"repl-retry:{self._name}")
                delay = min(delay * 2, cap)
                delay += self._retry_rng.uniform(0, delay * 0.25)
        finally:
            self._watchdog_running = False
