"""Lease-based replica reads (DESIGN.md §5g, §5q).

A backup holding a lease from its shard's current primary serves
read-only invocations at its own applied point.  Primary side: frames
and :class:`LeaseGrant` replies renew leases and carry the settlement
watermark and shared cache entries.  Backup side: the lease state, and
the read path that parks on it before and after executing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.coordinator import HEARTBEAT_INTERVAL_MS, HEARTBEAT_TIMEOUT_MS
from repro.cluster.messages import (
    ClientReply,
    ClientRequest,
    ReplicateWritesRange,
    estimate_size,
)
from repro.cluster.replication import ACK_TIMEOUT_MS
from repro.core.fields import value_digest
from repro.kvstore.batch import decode_round

#: replica-read lease duration (40 ms).  It sits two heartbeat intervals
#: below the failure-detection timeout so a partitioned backup's lease
#: always expires before the coordinator can reconfigure the shard
#: around it
REPLICA_READ_LEASE_MS = HEARTBEAT_TIMEOUT_MS - 2 * HEARTBEAT_INTERVAL_MS
#: bound on how long a backup read parks for a lease or watermark; within
#: the lease, so a parked read never outlives the grant it waits on
READ_PARK_MS = 4 * ACK_TIMEOUT_MS

#: digest of an absent storage key (mirrors repro.core.caching)
_ABSENT_DIGEST = b"\x00" * 8


@dataclass
class LeaseQuery:
    """Backup -> primary: renew my replica-read lease for ``shard_id``.

    Sent on demand (rate-limited) when a backup wants to serve a read but
    holds no valid lease, or needs a fresher settlement watermark to
    release a fenced read.  The primary answers with a
    :class:`LeaseGrant` only while it is still the shard's primary in a
    matching epoch.
    """

    shard_id: int
    backup: str
    epoch: int

    def size(self) -> int:
        return 24


@dataclass
class LeaseGrant:
    """Primary -> backup: serve reads for ``lease_ms`` from now.

    Also carries the current settlement watermark (releasing fenced
    reads) and any pending piggybacked cache entries.
    """

    shard_id: int
    epoch: int
    primary: str
    settled_through: int
    lease_ms: float
    cache_entries: list = field(default_factory=list)

    def size(self) -> int:
        total = 40
        if self.cache_entries:
            total += estimate_size(self.cache_entries)
        return total


@dataclass
class ReplicaReadState:
    """Backup-side replica-read state for one shard's current primaryship.

    Replaced wholesale when the shard's primary changes: a new primary
    means a fresh sequence space, so leases, watermarks, and dirtiness
    from the old primaryship are all meaningless."""

    primary: str
    #: sim time the current lease expires (-inf = never held one)
    lease_expiry: float = float("-inf")
    #: highest settlement watermark learned from frames, lease grants, or
    #: client fences (a fence is a settlement proof)
    known_settled: int = 0
    #: object-id prefix -> last sequence known to have written it and not
    #: yet known settled (pruned as ``known_settled`` advances)
    dirty: dict = field(default_factory=dict)
    #: parked reads woken on any state change
    waiters: list = field(default_factory=list)


class ReplicaReads:
    """One node's replica-read lease protocol, primary and backup halves.

    Disabled (``ClusterConfig.replica_reads`` off), a backup rejects every
    read as "not primary" and frames carry no lease."""

    def __init__(self, node: Any, enabled: bool) -> None:
        self.node = node
        self.enabled = enabled
        #: shard -> backup-side lease/watermark/dirtiness state
        self._states: dict[int, ReplicaReadState] = {}
        #: shard -> consistent-cache entries queued for piggybacking on
        #: the next outbound frame / lease grant (primary side, capped)
        self._cache_share: dict[int, list] = {}
        #: backup reads currently parked (cluster quiescence accounting)
        self.parked = 0
        #: shard -> last LeaseQuery send time (rate limiting)
        self._last_query: dict[int, float] = {}
        self._c_served = node.stats.cell("replica_reads_served")
        self._c_readonly = node.stats.cell("readonly_requests")
        node.endpoint.on(LeaseQuery, self._on_lease_query)
        node.endpoint.on(LeaseGrant, self._on_lease_grant)
        if enabled and node.runtime.cache is not None:
            # Primary-side half of cross-replica cache sharing: freshly
            # stored entries are queued for piggybacking (no-op while
            # this node is not a primary).
            node.runtime.cache.on_store = self._on_cache_store

    def leases(self) -> tuple:
        """``(shard_id, primary, lease_expiry)`` for every shard this
        node has replica-read state for."""
        return tuple(
            (shard_id, state.primary, state.lease_expiry)
            for shard_id, state in self._states.items()
        )

    # -- backup read path ------------------------------------------------

    def serve(self, request: ClientRequest, replica_set, root=None):
        """Serve a read at a backup: no primary round trip, no settlement
        barrier — the backup executes against its own applied state.

        Safety comes from three checks.  Pre-execution: a valid lease
        from the shard's current primary (a lease outlives every window
        in which the primary could settle writes without this backup, so
        a partitioned/deposed replica refuses instead of serving stale
        state) and ``applied_through >= min_applied`` (the client's
        monotonic-read fence).  Post-execution: the reply is parked until
        the settlement watermark covers the last applied write to the
        read objects, so a result derived from a write that could still
        be lost on failover is never released.  Rejections are retryable;
        the client's router penalises this backup briefly and retries
        elsewhere."""
        node = self.node
        if not self.enabled:
            # Without leases a backup must not serve reads at all (it
            # would skip the settlement barrier).
            node.reject(request, "not primary", "rejected_not_primary")
            return
        self._c_readonly.inc()
        yield from self._serve(request, replica_set, root)

    def _serve(self, request: ClientRequest, replica_set, root):
        node = self.node
        shard_id = replica_set.shard_id
        primary = replica_set.primary
        state = self._state_for(shard_id, primary)
        # A fence is a settlement proof: the client observed a reply
        # derived from settled sequence ``min_applied`` under this
        # primaryship, so the watermark is at least that.
        _advance_known_settled(state, request.min_applied)
        deadline = node.sim.now + READ_PARK_MS
        self.parked += 1
        try:
            ready = yield from self._await_ready(request, shard_id, primary, state, deadline)
            if not ready:
                return
            result = yield from node.run_on_core(request, root)
            if result is None:
                return
            if result.sub_results:
                # Nested dispatches executed remotely at their owners'
                # runtimes and may expose state no watermark this replica
                # knows about covers; bounce to the primary's barrier.
                node.reject(request, "not primary", "rejected_not_primary")
                return
            required = state.dirty.get(str(request.object_id).encode(), 0)
            released = yield from self._await_settled(
                request, shard_id, primary, state, required, deadline
            )
            if not released:
                return
            self._c_served.inc()
            fence = (
                (shard_id, primary, state.known_settled)
                if state.known_settled
                else None
            )
            node.reply(
                request,
                ClientReply(request.request_id, True, value=result.value, fence=fence),
            )
        finally:
            self.parked -= 1

    def _await_ready(
        self, request: ClientRequest, shard_id: int, primary: str,
        state: ReplicaReadState, deadline: float,
    ):
        """Pre-execution gate for a backup read: park until this backup
        holds a valid lease and has applied the client's fence.  Returns
        False after sending a retryable rejection."""
        node = self.node
        while True:
            if node.shard_map is None:
                node.reject(request, "wrong epoch", "rejected_wrong_epoch")
                return False
            current = node.shard_map.shard_for(request.object_id)
            if (
                current.shard_id != shard_id
                or current.primary != primary
                or not current.has_member(node.name)
            ):
                # Reconfigured while parked: the lease state no longer
                # describes this shard's primaryship.
                node.reject(request, "wrong epoch", "rejected_wrong_epoch")
                return False
            applier = node.backup_appliers.get(shard_id)
            applied = applier.applied_through if applier is not None else 0
            lease_ok = node.sim.now < state.lease_expiry
            if lease_ok and applied >= request.min_applied:
                return True
            if node.sim.now >= deadline:
                if not lease_ok:
                    node.reject(request, "no lease", "lease_rejections")
                else:
                    node.reject(request, "replica behind", "replica_behind_rejections")
                return False
            self._maybe_lease_query(shard_id, primary)
            yield from self._park_on(state, deadline)

    def _await_settled(
        self, request: ClientRequest, shard_id: int, primary: str,
        state: ReplicaReadState, required: int, deadline: float,
    ):
        """Post-execution gate for a backup read: park until the
        settlement watermark covers ``required`` (the last applied write
        to the read objects).  Returns False after sending a retryable
        rejection."""
        node = self.node
        while state.known_settled < required:
            if node.sim.now >= deadline:
                node.reject(request, "replica behind", "replica_behind_rejections")
                return False
            if node.shard_map is not None:
                current = node.shard_map.shard_for(request.object_id)
                if current.primary != primary:
                    # Deposed primary: its watermark can never advance to
                    # cover the unsettled write this result exposes.
                    node.reject(request, "wrong epoch", "rejected_wrong_epoch")
                    return False
            self._maybe_lease_query(shard_id, primary)
            yield from self._park_on(state, deadline)
        return True

    def _park_on(self, state: ReplicaReadState, deadline: float):
        """Park until the shard's replica-read state changes or the
        deadline passes (whichever comes first)."""
        sim = self.node.sim
        remaining = deadline - sim.now
        if remaining <= 0:
            return
        event = sim.event()
        state.waiters.append(event)
        try:
            yield from sim.wait(event, remaining)
        finally:
            if not event.triggered and event in state.waiters:
                state.waiters.remove(event)

    # -- lease protocol --------------------------------------------------

    def _state_for(self, shard_id: int, primary: str) -> ReplicaReadState:
        state = self._states.get(shard_id)
        if state is None or state.primary != primary:
            state = ReplicaReadState(primary=primary)
            self._states[shard_id] = state
        return state

    def _renew(
        self, state: ReplicaReadState, lease_ms: float, settled_through: int,
        cache_entries: Optional[list],
    ) -> None:
        """Extend the lease, learn the settlement watermark, install
        piggybacked cache entries, and wake parked reads."""
        if lease_ms > 0:
            expiry = self.node.sim.now + lease_ms
            if expiry > state.lease_expiry:
                state.lease_expiry = expiry
        _advance_known_settled(state, settled_through)
        if cache_entries:
            self._install_shared_cache(cache_entries)
        if state.waiters:
            waiters, state.waiters = state.waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    def on_frame(self, message: ReplicateWritesRange) -> None:
        """Backup half of the lease protocol, fed by a replication frame
        this node just applied: renew the lease, mark the frame's objects
        dirty, learn the watermark, install piggybacked cache entries
        (validated against the just-applied state), and wake parked
        reads."""
        node = self.node
        if not self.enabled or node.shard_map is None:
            return
        replica_set = node.shard_map.replica_set_or_none(message.shard_id)
        if (
            replica_set is None
            or replica_set.primary != message.primary
            or node.name not in replica_set.backups
        ):
            # A frame from a deposed primary must not resurrect a lease
            # (or reset the state built up under the current one).
            return
        state = self._state_for(message.shard_id, message.primary)
        for offset, payload in enumerate(message.rounds):
            sequence = message.first_sequence + offset
            # The round's object ids come with its batches from the memo.
            for obj in decode_round(payload)[1]:
                if state.dirty.get(obj, 0) < sequence:
                    state.dirty[obj] = sequence
        self._renew(state, message.lease_ms, message.settled_through, message.cache_entries)

    def stamp_frame(self, message: ReplicateWritesRange, shard_id: int) -> None:
        """Primary side: make an outbound frame a lease renewal and attach
        any queued cache entries (drained once; retransmissions carry
        none)."""
        if not self.enabled:
            return
        message.lease_ms = REPLICA_READ_LEASE_MS
        entries = self._cache_share.pop(shard_id, None)
        if entries:
            message.cache_entries = entries

    def _lease_query(self, shard_id: int) -> Optional[LeaseQuery]:
        """A LeaseQuery for ``shard_id``, at most once per ack timeout per
        shard (frames renew for free under write traffic, so queries only
        flow when a backup serves reads of a quiet or unsettled shard)."""
        node = self.node
        last = self._last_query.get(shard_id, float("-inf"))
        if node.sim.now - last < ACK_TIMEOUT_MS:
            return None
        self._last_query[shard_id] = node.sim.now
        return LeaseQuery(shard_id, node.name, node.epoch)

    def _maybe_lease_query(self, shard_id: int, primary: str) -> None:
        query = self._lease_query(shard_id)
        if query is not None:
            self.node.endpoint.send(primary, query)

    def renewal_query(self, shard_id: int, primary: str) -> Optional[LeaseQuery]:
        """A LeaseQuery to ride along with a drained ack, but only when
        the lease is below half-life and the rate limiter allows it
        (replication frames renew leases for free, so this only fires on
        shards whose write traffic just went quiet)."""
        state = self._states.get(shard_id)
        if state is None or state.primary != primary:
            return None
        if state.lease_expiry - self.node.sim.now > REPLICA_READ_LEASE_MS * 0.5:
            return None
        return self._lease_query(shard_id)

    def _on_lease_query(self, message: LeaseQuery) -> None:
        node = self.node
        if not self.enabled or node.shard_map is None:
            return
        if message.epoch != node.epoch:
            return  # stale epoch on either side: let config refresh fix it
        replica_set = node.shard_map.replica_set_or_none(message.shard_id)
        if (
            replica_set is None
            or replica_set.primary != node.name
            or message.backup not in replica_set.backups
        ):
            return  # deposed (or never) primary: grant nothing
        pipeline = node.pipelines.get(message.shard_id)
        settled = pipeline.settled_through if pipeline is not None else 0
        entries = self._cache_share.pop(message.shard_id, [])
        node.stats.lease_grants += 1
        grant = LeaseGrant(
            message.shard_id,
            node.epoch,
            node.name,
            settled,
            REPLICA_READ_LEASE_MS,
            entries,
        )
        node.endpoint.send(message.backup, grant)

    def _on_lease_grant(self, message: LeaseGrant) -> None:
        node = self.node
        if not self.enabled or node.shard_map is None:
            return
        if message.epoch != node.epoch:
            return
        replica_set = node.shard_map.replica_set_or_none(message.shard_id)
        if replica_set is None or replica_set.primary != message.primary:
            return
        state = self._state_for(message.shard_id, message.primary)
        self._renew(state, message.lease_ms, message.settled_through, message.cache_entries)

    # -- cross-replica cache sharing ---------------------------------------

    def _on_cache_store(
        self, object_id: str, method: str, digest: bytes, value, read_set: dict
    ) -> None:
        """ResultCache.on_store hook: queue a freshly memoised entry for
        piggybacking to this shard's backups (primary side only)."""
        own_shard = self.node.led_shard()
        if own_shard is None or not own_shard.backups:
            return
        queue = self._cache_share.setdefault(own_shard.shard_id, [])
        queue.append((object_id, method, digest, value, dict(read_set)))
        if len(queue) > 64:
            del queue[0]  # best-effort: drop the oldest, not the freshest

    def _install_shared_cache(self, entries: list) -> None:
        """Backup side: validate each piggybacked entry's read set against
        *local* applied state and install the ones that match (a mismatch
        just means this replica hasn't applied the underpinning writes or
        already applied newer ones — skip, never serve)."""
        runtime = self.node.runtime
        cache = runtime.cache
        if cache is None:
            return
        get = runtime.storage.get
        for object_id, method, digest, value, read_set in entries:
            valid = True
            for storage_key, expected_digest in read_set.items():
                current = get(storage_key)
                current_digest = (
                    value_digest(current) if current is not None else _ABSENT_DIGEST
                )
                if current_digest != expected_digest:
                    valid = False
                    break
            if valid:
                cache.install(object_id, method, digest, value, read_set)


def _advance_known_settled(state: ReplicaReadState, settled_through: int) -> None:
    if settled_through > state.known_settled:
        state.known_settled = settled_through
        if state.dirty:
            for obj in [o for o, s in state.dirty.items() if s <= settled_through]:
                del state.dirty[obj]
