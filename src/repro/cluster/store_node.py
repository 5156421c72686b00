"""Storage nodes: where objects live and their methods execute (§4.2).

A node is primary for some microshards and backup for others.  Mutating
invocations run at the primary under the per-object lock, commit locally,
and enqueue their write batches on the shard's replication pipeline; the
client reply waits until every live backup acked them.  Read-only
invocations run at the primary behind a settlement barrier, or at a
lease-holding backup, and use the node's consistent result cache.

Time accounting (see DESIGN.md): guest code executes synchronously at one
simulated instant; the node then *charges* the modelled durations — CPU
time derived from metered fuel while holding a core, replication round
trips as real simulated messages — before replying.  Per-object locks are
held across the modelled execution time, so scheduling-as-concurrency-
control behaves exactly as in the paper.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core import keyspace
from repro.core.invocation import InvocationResult
from repro.core.runtime import LocalRuntime
from repro.core.ids import ObjectId
from repro.core.storage import MemoryBackend
from repro.cluster.messages import (
    ClientReply,
    ClientRequest,
    ConfigQuery,
    ConfigReply,
    Heartbeat,
    LeaseGrant,
    LeaseQuery,
    MigrateAck,
    MigrateObject,
    NewConfig,
    ReplicateAck,
    ReplicateWritesRange,
)
from repro.cluster.coordinator import HEARTBEAT_INTERVAL_MS, HEARTBEAT_TIMEOUT_MS
from repro.cluster.replication import (
    ACK_TIMEOUT_MS,
    BackupApplier,
    PrimaryReplicationLog,
    ReplicationPipeline,
)
from repro.cluster.scheduler import ObjectLockTable
from repro.core.fields import value_digest
from repro.errors import InvocationError, UnknownObjectError
from repro.kvstore.batch import WriteBatch, decode_round, encode_round
from repro.obs.registry import StatsView
from repro.rpc import RetryAfter, RpcEndpoint
from repro.sim.core import Simulation
from repro.sim.network import Network
from repro.sim.resources import Resource

#: nested invocations of one job execute in parallel on the node's cores
#: ("Updating many follower timelines at once is done quickly by running
#: the store_post calls in parallel", §3.2); this caps the per-job
#: parallelism
FANOUT_PARALLELISM = 8
#: LRU backstop for the node's at-most-once tables: client replies (on
#: the endpoint) and retransmitted remote charges
COMPLETED_CAP = 4096
#: retransmission budget for RemoteCharge delivery to nested-call owners
CHARGE_MAX_ATTEMPTS = 5
#: replica-read lease duration (40 ms).  It sits two heartbeat intervals
#: below the failure-detection timeout so a partitioned backup's lease
#: always expires before the coordinator can reconfigure the shard
#: around it
REPLICA_READ_LEASE_MS = HEARTBEAT_TIMEOUT_MS - 2 * HEARTBEAT_INTERVAL_MS
#: bound on how long a backup read parks for a lease or watermark; within
#: the lease, so a parked read never outlives the grant it waits on
READ_PARK_MS = 4 * ACK_TIMEOUT_MS


@dataclass
class RemoteCharge:
    """Primary A -> primary B: charge CPU + replicate for a nested
    invocation whose effects were applied during A's execution."""

    charge_id: str
    fuel: float
    #: the owner's writes as one encoded round (``b""`` when it wrote none)
    payload: bytes
    sender: str
    #: originating request id, so the owner's settle span joins the trace
    trace_id: str = ""

    def size(self) -> int:
        return 32 + len(self.payload)


@dataclass
class RemoteChargeAck:
    """Owner -> caller: remote charge settled."""

    charge_id: str

    def size(self) -> int:
        return 16


@dataclass
class FreezeObject:
    """Migration step 1: freeze + dump an object's microshard."""

    object_id: ObjectId
    freeze_id: str
    sender: str

    def size(self) -> int:
        return 48


@dataclass
class FreezeReply:
    """Source primary -> orchestrator: the dumped microshard."""

    freeze_id: str
    entries: list[tuple[bytes, bytes]]

    def size(self) -> int:
        return 16 + sum(len(k) + len(v) for k, v in self.entries)


@dataclass
class UnfreezeObject:
    """Orchestrator -> source primary: release (and drop) the object."""

    object_id: ObjectId
    #: drop the object's local data (it moved away)
    drop: bool

    def size(self) -> int:
        return 33


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


#: digest of an absent storage key (mirrors repro.core.caching)
_ABSENT_DIGEST = b"\x00" * 8


class NodeStats(StatsView):
    """Per-node request/replication counters.

    ``rejected_node_behind`` counts requests carrying an epoch *newer*
    than this node's (node behind after a reconfiguration it has not yet
    learned about); ``dropped_stale_duplicates`` counts laggard duplicates
    of requests the client already moved past, fenced by the at-most-once
    watermark instead of re-executed.
    """

    PREFIX = "node"
    COUNTERS = {
        "requests": 0,
        "readonly_requests": 0,
        "mutating_requests": 0,
        "rejected_wrong_epoch": 0,
        "rejected_node_behind": 0,
        "rejected_not_primary": 0,
        "dropped_stale_duplicates": 0,
        "failed_invocations": 0,
        "replication_rounds": 0,
        "remote_charges": 0,
        "remote_charge_retries": 0,
        "remote_charge_timeouts": 0,
        "config_refreshes": 0,
        "shed_requests": 0,
        "replica_reads_served": 0,
        "lease_rejections": 0,
        "replica_behind_rejections": 0,
        "lease_grants": 0,
        "acks_deferred": 0,
        "acks_piggybacked": 0,
        "acks_timer_flushed": 0,
        "busy_ms": 0.0,
    }


class ClusterNodeRuntime(LocalRuntime):
    """LocalRuntime that routes nested invocations to the owning node."""

    def __init__(self, node: "StoreNode", **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.node = node

    def _commit(self, ctx, reason: str = "final"):
        # Replica-state safety net: only an object's primary may commit
        # writes through the execution path.  This catches e.g. a
        # read-only invocation served at a backup whose guest code
        # nested-dispatched a mutating call — allowing that commit would
        # silently fork the replica from the primary.
        writeset = ctx.writeset
        if writeset.has_writes and self.node.shard_map is not None:
            replica_set = self.node.shard_map.shard_for(ctx.self_id())
            if replica_set.primary != self.node.name:
                raise InvocationError(
                    f"mutating commit for object {ctx.self_id().short} attempted "
                    f"at {self.node.name}, which is not its primary "
                    f"({replica_set.primary}); route writes to the primary"
                )
        return super()._commit(ctx, reason=reason)

    def nested_invoke(self, parent_ctx, object_id, method, args):
        owner = self.node.owner_node_for(object_id)
        if owner is None or owner is self.node:
            return super().nested_invoke(parent_ctx, object_id, method, args)
        # Remote microshard: commit the caller (§3.1), execute at the
        # owner's runtime now, and record the time/replication charge the
        # replay phase will bill to the owner.
        if parent_ctx.readonly:
            # Read-only transitivity, resolved against the owner (this
            # node may not hold the remote object's metadata).
            try:
                target_readonly = (
                    owner.runtime.type_of(object_id).method_def(method).readonly
                )
            except Exception:
                target_readonly = True  # let the dispatch raise precisely
            if not target_readonly:
                raise InvocationError(
                    f"read-only invocation cannot dispatch mutating method "
                    f"{method!r} on {object_id.short}"
                )
        self._commit(parent_ctx, reason="pre-nested")
        capture = self.node.cluster.capture
        result = owner.runtime.invoke_detailed(
            object_id, method, *args, _depth=parent_ctx.depth + 1, _internal=True
        )
        parent_ctx.sub_results.append(result)
        if capture is not None:
            capture.remote_dispatches.append((owner.name, result))
        return result.value


@dataclass
class ExecutionCapture:
    """What one top-level execution produced, for the replay phase."""

    #: committed batches per node name, in commit order; each node's list
    #: is encoded once, as one replication round, when it is submitted
    batches: dict[str, list[WriteBatch]] = field(default_factory=dict)
    #: (owner node name, sub InvocationResult) for remote nested calls
    remote_dispatches: list[tuple[str, InvocationResult]] = field(default_factory=list)

    def round_for(self, node_name: str) -> tuple[bytes, tuple]:
        """``node_name``'s writes as one encoded round and the ids of the
        objects they touched (``(b"", ())`` when it wrote nothing).  The
        backups of this process apply these very batches when the payload
        reaches them, instead of parsing it back."""
        batches = self.batches.get(node_name)
        if not batches:
            return b"", ()
        return encode_round(batches)


class StoreNode:
    """One LambdaStore storage node."""

    def __init__(
        self,
        sim: Simulation,
        net: Network,
        cluster: Any,
        name: str,
        storage: Optional[Any] = None,
        admission: Optional[Any] = None,
    ) -> None:
        config = cluster.config
        self.sim = sim
        self.net = net
        self.cluster = cluster
        self.name = name
        #: test-only reintroduced historical bugs (model-checker self-tests)
        self._seeded_bugs = frozenset(config.seeded_bugs)
        registry = cluster.metrics
        labels = {"node": name}
        #: the node's comms substrate: typed dispatch, per-RPC metrics,
        #: and the at-most-once reply table all live on the endpoint
        self.endpoint = RpcEndpoint(
            sim,
            net,
            name,
            registry=registry,
            labels=labels,
            gate=lambda: self.crashed,
            dedupe_cap=COMPLETED_CAP,
        )
        self.host = self.endpoint.host
        self.cpu = Resource(sim, config.cores_per_node)
        self.locks = ObjectLockTable(sim, registry, labels)
        #: optional per-tenant admission controller (DESIGN.md §5h); its
        #: backpressure probe is this node's per-object lock queues
        self._admission = admission
        if admission is not None and admission.pressure_fn is None:
            admission.pressure_fn = self.locks.total_waiting
        self.ms_per_fuel = config.ms_per_fuel
        self.runtime = ClusterNodeRuntime(
            node=self,
            storage=storage if storage is not None else MemoryBackend(),
            clock=lambda: self.sim.now,
            enable_cache=config.enable_cache,
            costs=cluster.costs,
            seed=config.seed,
            registry=registry,
            metrics_labels=labels,
            trace_node=name,
        )
        self._registry = registry
        self._metric_labels = labels
        self._request_hist = None
        if registry is not None:
            self._request_hist = {
                kind: registry.histogram(
                    "node_request_ms",
                    {**labels, "kind": kind},
                    help="client-request service time at this node",
                )
                for kind in ("readonly", "mutating")
            }
        self.runtime.commit_hook = self._on_commit
        self.epoch = 0
        self.shard_map = None
        self.backup_appliers: dict[int, BackupApplier] = {}
        #: group-commit replication (§4.2.1 + pipelining), one per led shard
        self.pipelines: dict[int, ReplicationPipeline] = {}
        #: replica-read lease protocol (backups serve reads at their own
        #: applied point)
        self._replica_reads = config.replica_reads
        #: shard -> backup-side lease/watermark/dirtiness state
        self._replica_read_state: dict[int, ReplicaReadState] = {}
        #: shard -> consistent-cache entries queued for piggybacking on
        #: the next outbound frame / lease grant (primary side, capped)
        self._cache_share: dict[int, list] = {}
        #: backup reads currently parked (cluster quiescence accounting)
        self._parked_reads = 0
        #: shard -> last LeaseQuery send time (rate limiting)
        self._last_lease_query: dict[int, float] = {}
        #: transport egress coalescing (§5j): defer cumulative acks so
        #: they piggyback on reverse-direction wire messages, with a
        #: fallback timer for idle links
        self._coalescing = config.transport_coalescing
        #: clamped to half the ack timeout so deferral never looks like
        #: ack loss to the primary's watchdog
        self._ack_flush_ms = min(config.ack_flush_ms, ACK_TIMEOUT_MS / 2)
        #: primary name -> {shard_id: applied_through} awaiting send;
        #: cumulative, so the latest watermark per shard wins
        self._pending_acks: dict[str, dict[int, int]] = {}
        #: destinations with a fallback ack timer currently armed
        self._ack_timer_armed: set[str] = set()
        self._charge_waiters: dict[str, Any] = {}
        #: charge_id -> completed?  (at-most-once for retransmitted charges)
        self._charges_seen: "OrderedDict[str, bool]" = OrderedDict()
        self._freeze_waiters: dict[str, Any] = {}
        #: request_id -> ClientReply already sent (at-most-once per primary,
        #: bounded by per-client watermarks + an LRU cap); owned by the
        #: endpoint, which exports its occupancy/eviction gauges
        self._completed = self.endpoint.dedupe
        #: request_id -> completion event for requests still executing, so
        #: client retries of an in-flight request never re-execute it
        self._inflight: dict[str, Any] = {}
        #: objects frozen for migration
        self._frozen: set[str] = set()
        #: per-object invocation counts since the last rebalancer sweep
        self.object_load: dict[str, int] = {}
        #: protocol extensions (e.g. the transaction participant); each is
        #: offered unrecognised messages via ``handle(message) -> bool``
        self.extensions: list[Any] = []
        self.stats = NodeStats(registry, labels)
        # Preresolved counter handles for the per-request hot path (see
        # StatsView.handle): one attribute bump instead of dict lookups.
        self._c_requests = self.stats.cell("requests")
        self._c_readonly_requests = self.stats.cell("readonly_requests")
        self._c_mutating_requests = self.stats.cell("mutating_requests")
        self._c_failed_invocations = self.stats.cell("failed_invocations")
        self._c_replication_rounds = self.stats.cell("replication_rounds")
        self._c_replica_reads_served = self.stats.cell("replica_reads_served")
        self._c_busy_ms = self.stats.cell("busy_ms")
        if self.runtime.cache is not None:
            # Primary-side half of cross-replica cache sharing: freshly
            # stored entries are queued for piggybacking (no-op while
            # this node is not a primary or replica reads are off).
            self.runtime.cache.on_store = self._on_cache_store
        self.crashed = False
        self._hb_generation = 0
        self._config_query_counter = 0
        self._last_config_query = float("-inf")
        if self._coalescing:
            # Backup half of ack piggybacking: any coalesced wire message
            # leaving this node carries the deferred watermarks for free.
            self.endpoint.set_piggyback_provider(self._piggyback_frames)
        self._register_handlers()

    def _register_handlers(self) -> None:
        """Wire the endpoint's dispatch table (replaces the old
        hand-rolled isinstance chain; same handlers, same spawn points)."""
        endpoint = self.endpoint
        endpoint.on(ClientRequest, self._handle_request, spawn="req")
        endpoint.on(ReplicateWritesRange, self._on_replicate_range)
        endpoint.on(ReplicateAck, self._on_replicate_ack)
        endpoint.on(LeaseQuery, self._on_lease_query)
        endpoint.on(LeaseGrant, self._on_lease_grant)
        endpoint.on(NewConfig, self._on_config_message)
        endpoint.on(ConfigReply, self._on_config_message)
        endpoint.on(RemoteCharge, self._on_remote_charge)
        endpoint.on(RemoteChargeAck, self._on_remote_charge_ack)
        endpoint.on(FreezeObject, self._handle_freeze, spawn="freeze")
        endpoint.on(FreezeReply, self._on_freeze_reply)
        endpoint.on(UnfreezeObject, self._on_unfreeze)
        endpoint.on(MigrateObject, self._handle_migrate_in)
        endpoint.on_default(self._offer_extensions)

    # -- wiring -------------------------------------------------------------

    @property
    def tracer(self):
        """The cluster-wide span tracer, or None when tracing is off."""
        return self.cluster.tracer

    def start(self) -> None:
        self.endpoint.start()
        self._hb_generation += 1
        self.sim.process(
            self._heartbeat_loop(self._hb_generation), name=f"{self.name}.heartbeat"
        )

    def crash(self) -> None:
        """Fail-stop: no further sends or receives."""
        self.crashed = True
        self.net.crash(self.name)
        # Deferred acks die with the node; the primary's watchdog
        # retransmits and fresh acks accumulate after recovery.
        self._pending_acks.clear()

    def recover(self) -> None:
        """Bring a crashed node back online (state intact, inbox resumes).

        The node keeps whatever epoch/shard map/storage it had; any
        replication it missed while down is filled in by the primary's
        retransmission loop, or the node leaves the replica set if the
        coordinator already declared it dead."""
        if not self.crashed:
            return
        self.crashed = False
        self.net.recover(self.name)
        self._hb_generation += 1
        self.sim.process(
            self._heartbeat_loop(self._hb_generation), name=f"{self.name}.heartbeat"
        )

    def owner_node_for(self, object_id: ObjectId) -> Optional["StoreNode"]:
        """The StoreNode acting as primary for ``object_id`` (or None)."""
        if self.shard_map is None:
            return None
        return self.cluster.node(self.shard_map.primary_for(object_id))

    def dump_object_state(self, object_id: ObjectId) -> list[tuple[bytes, bytes]]:
        """Sorted (key, value) dump of one object's microshard, for the
        consistency checker's replica-convergence comparison."""
        prefix = keyspace.object_prefix(object_id)
        return sorted(self.runtime.storage.iterate(prefix, keyspace.prefix_end(prefix)))

    def _on_commit(self, batch: WriteBatch) -> None:
        capture = self.cluster.capture
        if capture is not None:
            capture.batches.setdefault(self.name, []).append(batch)

    def install_config(self, epoch: int, shard_map) -> None:
        """Adopt a configuration (bootstrap or NewConfig).

        Replication pipelines drain on every adoption: for shards this
        node still leads, queued rounds ship to the new membership
        immediately and the settlement watermark is re-evaluated so
        backups that left the replica set (failover, migration) stop
        gating parked replies.  Pipelines for shards this node no longer
        leads are retired — a deposed primary must neither retransmit
        stale frames over the new primary's stream nor release replies
        against a backup set it no longer commands."""
        if epoch <= self.epoch:
            return
        self.epoch = epoch
        self.shard_map = shard_map
        for shard_id, pipeline in self.pipelines.items():
            replica_set = shard_map.replica_set_or_none(shard_id)
            if replica_set is None or replica_set.primary != self.name:
                pipeline.retire()
            else:
                pipeline.unretire()
                pipeline.on_config_change()

    # -- background processes ----------------------------------------------

    def _heartbeat_loop(self, generation: int):
        rng = self.sim.rng(f"{self.name}.hb")
        yield self.sim.timeout(rng.uniform(0, HEARTBEAT_INTERVAL_MS))
        while True:
            if self.crashed or generation != self._hb_generation:
                return
            for coordinator in self.cluster.coordinator_names():
                message = Heartbeat(self.name, self.sim.now)
                self.endpoint.send(coordinator, message)
            yield self.sim.timeout(HEARTBEAT_INTERVAL_MS)

    def _on_config_message(self, message) -> None:
        self.install_config(message.epoch, message.config)

    def _on_remote_charge(self, message: RemoteCharge) -> None:
        done = self._charges_seen.get(message.charge_id)
        if done is None:
            # First sighting: remember it so retransmissions of the
            # same charge never double-bill CPU or re-replicate.
            self._charges_seen[message.charge_id] = False
            while len(self._charges_seen) > COMPLETED_CAP:
                self._charges_seen.popitem(last=False)
            self.sim.process(
                self._handle_remote_charge(message), name=f"{self.name}.charge"
            )
        elif done:
            # Already settled; the earlier ack was lost — re-ack.
            ack = RemoteChargeAck(message.charge_id)
            self.endpoint.send(message.sender, ack)
        # else: still in flight; the original handler will ack.

    def _on_remote_charge_ack(self, message: RemoteChargeAck) -> None:
        waiter = self._charge_waiters.pop(message.charge_id, None)
        if waiter is not None:
            waiter.succeed()

    def _on_freeze_reply(self, message: FreezeReply) -> None:
        waiter = self._freeze_waiters.pop(message.freeze_id, None)
        if waiter is not None:
            waiter.succeed(message.entries)

    def _on_unfreeze(self, message: UnfreezeObject) -> None:
        self._frozen.discard(str(message.object_id))
        if message.drop:
            self.sim.process(
                self._drop_object(message.object_id), name=f"{self.name}.drop"
            )

    def _offer_extensions(self, message) -> bool:
        for extension in self.extensions:
            if extension.handle(message):
                return True
        return False

    # -- replication -----------------------------------------------------------

    def _applier_for(self, shard_id: int, primary: str) -> BackupApplier:
        applier = self.backup_appliers.get(shard_id)
        if applier is None or applier.primary != primary:
            # A different primary means a fresh sequence space (failover
            # promotes a backup, which restarts numbering at 1).
            applier = BackupApplier(
                shard_id,
                primary,
                self.runtime.storage.apply,
                registry=self._registry,
                labels={
                    **self._metric_labels,
                    "role": "backup",
                    "shard": str(shard_id),
                },
            )
            self.backup_appliers[shard_id] = applier
        return applier

    def _invalidate_applied(
        self,
        applied: list[tuple[int, bytes]],
        direct_sequences: Optional[set] = None,
    ) -> None:
        if self.runtime.cache is None:
            return
        if direct_sequences is not None and "drain-invalidation" in self._seeded_bugs:
            # Seeded bug for the model checker's self-test: reintroduces
            # the pre-PR-1 behavior of invalidating only the sequences the
            # triggering message carried, silently skipping buffered
            # out-of-order sequences the applier drained along with it.
            applied = [
                (sequence, payload)
                for sequence, payload in applied
                if sequence in direct_sequences
            ]
        # Writes landed on this replica; cached read-only results that
        # depend on them must not be served stale.  The applier may have
        # drained buffered out-of-order sequences beyond the triggering
        # message, so invalidate the keys of *every* applied round —
        # through the shared decode memo, which the applier just warmed.
        written_keys: list[bytes] = []
        for _sequence, payload in applied:
            if not payload:
                continue  # a duplicate: nothing was applied
            for batch in decode_round(payload)[0]:
                written_keys.extend(key for _kind, key, _v in batch.items())
        if written_keys:
            self.runtime.cache.invalidate_keys(written_keys)

    def _on_replicate_range(self, message: ReplicateWritesRange) -> None:
        """Apply a group-commit frame; answer with one cumulative ack.

        The ack always goes out — even when the frame was entirely
        duplicate or arrived ahead of a gap — because ``applied_through``
        is what tells the primary's watchdog which range to retransmit."""
        applier = self._applier_for(message.shard_id, message.primary)
        applied: list[tuple[int, bytes]] = []
        for offset, payload in enumerate(message.rounds):
            applied.extend(applier.receive(message.first_sequence + offset, payload))
        self._invalidate_applied(
            applied,
            direct_sequences=set(
                range(
                    message.first_sequence,
                    message.first_sequence + len(message.rounds),
                )
            ),
        )
        probe = self.cluster.mc_crash_probe
        if probe is not None and not self.crashed:
            # Crash point: the backup applied the frame but its ack (and
            # any lease absorption) may never leave the node.
            probe(self.name, "backup-applied")
        if self._coalescing:
            # §5j: the ack is cumulative, so it can wait for the next
            # reverse-direction wire message (or the fallback timer)
            # instead of being a dedicated network message per frame.
            self._defer_ack(message.primary, message.shard_id, applier.applied_through)
        else:
            reply = ReplicateAck(message.shard_id, applier.applied_through, self.name)
            self.endpoint.send(message.primary, reply)
        if self._replica_reads:
            self._absorb_frame_lease(message)

    # -- deferred / piggybacked acks (§5j) ----------------------------------

    def _defer_ack(self, primary: str, shard_id: int, applied_through: int) -> None:
        """Park a cumulative ack for ``primary``: it leaves either
        piggybacked on the next coalesced wire message toward the
        primary, or on the ``ack_flush_ms`` fallback timer — whichever
        fires first.  Later watermarks for the same shard overwrite
        earlier ones, which is exactly what cumulative acks allow."""
        pending = self._pending_acks.get(primary)
        if pending is None:
            pending = self._pending_acks[primary] = {}
        pending[shard_id] = applied_through
        self.stats.acks_deferred += 1
        if primary not in self._ack_timer_armed:
            self._ack_timer_armed.add(primary)
            self.sim._schedule(
                self._ack_flush_ms, lambda dst=primary: self._flush_acks(dst)
            )

    def _drain_deferred_acks(self, dst: str) -> list:
        """Pop every deferred ack bound for ``dst`` as ``(payload,
        size_bytes)`` frames, attaching a lease renewal query when the
        shard's lease is past half-life (§5g state rides along for
        free).  Shared by the piggyback provider and the fallback timer
        so whichever fires first wins and the other is a no-op."""
        pending = self._pending_acks.pop(dst, None)
        if not pending:
            return []
        frames = []
        for shard_id, applied_through in pending.items():
            ack = ReplicateAck(shard_id, applied_through, self.name)
            frames.append((ack, ack.size()))
            if self._replica_reads:
                query = self._lease_renewal_query(shard_id, dst)
                if query is not None:
                    frames.append((query, query.size()))
        return frames

    def _lease_renewal_query(self, shard_id: int, primary: str):
        """A LeaseQuery to ride along with a drained ack, but only when
        the lease is below half-life and the per-shard rate limiter
        allows it (replication frames renew leases for free, so this
        only fires on shards whose write traffic just went quiet)."""
        state = self._replica_read_state.get(shard_id)
        if state is None or state.primary != primary:
            return None
        if state.lease_expiry - self.sim.now > REPLICA_READ_LEASE_MS * 0.5:
            return None
        last = self._last_lease_query.get(shard_id, float("-inf"))
        if self.sim.now - last < ACK_TIMEOUT_MS:
            return None
        self._last_lease_query[shard_id] = self.sim.now
        return LeaseQuery(shard_id, self.name, self.epoch)

    def _piggyback_frames(self, dst: str):
        """Network-side piggyback provider: called once per outbound
        coalesced wire message, drains any acks waiting for ``dst``."""
        if self.crashed:
            return None
        frames = self._drain_deferred_acks(dst)
        if not frames:
            return None
        self.stats.acks_piggybacked += sum(
            1 for payload, _size in frames if type(payload) is ReplicateAck
        )
        return frames

    def _flush_acks(self, dst: str) -> None:
        """Fallback timer path: no reverse-direction traffic showed up
        within ``ack_flush_ms``, so send the deferred acks as their own
        frames (the egress coalescer still packs them into one wire
        message per destination)."""
        self._ack_timer_armed.discard(dst)
        if self.crashed:
            self._pending_acks.pop(dst, None)
            return
        frames = self._drain_deferred_acks(dst)
        if not frames:
            return
        self.stats.acks_timer_flushed += sum(
            1 for payload, _size in frames if type(payload) is ReplicateAck
        )
        send = self.endpoint.send
        for payload, size_bytes in frames:
            send(dst, payload, size_bytes=size_bytes)

    def _absorb_frame_lease(self, message: ReplicateWritesRange) -> None:
        """Backup half of the lease protocol, fed by a replication frame:
        renew the lease, learn the settlement watermark, mark the frame's
        objects dirty, install piggybacked cache entries (validated
        against the just-applied state), and wake parked reads."""
        if self.shard_map is None:
            return
        replica_set = self.shard_map.replica_set_or_none(message.shard_id)
        if (
            replica_set is None
            or replica_set.primary != message.primary
            or self.name not in replica_set.backups
        ):
            # A frame from a deposed primary must not resurrect a lease
            # (or reset the state built up under the current one).
            return
        state = self._replica_state_for(message.shard_id, message.primary)
        if message.lease_ms > 0:
            expiry = self.sim.now + message.lease_ms
            if expiry > state.lease_expiry:
                state.lease_expiry = expiry
        for offset, payload in enumerate(message.rounds):
            sequence = message.first_sequence + offset
            # The round's object ids come with its batches from the memo.
            for obj in decode_round(payload)[1]:
                if state.dirty.get(obj, 0) < sequence:
                    state.dirty[obj] = sequence
        self._advance_known_settled(state, message.settled_through)
        if message.cache_entries:
            self._install_shared_cache(message.cache_entries)
        self._wake_replica_waiters(state)

    # -- replica-read leases ---------------------------------------------------

    def _replica_state_for(self, shard_id: int, primary: str) -> ReplicaReadState:
        state = self._replica_read_state.get(shard_id)
        if state is None or state.primary != primary:
            state = ReplicaReadState(primary=primary)
            self._replica_read_state[shard_id] = state
        return state

    @staticmethod
    def _advance_known_settled(state: ReplicaReadState, settled_through: int) -> None:
        if settled_through > state.known_settled:
            state.known_settled = settled_through
            if state.dirty:
                for obj in [
                    o for o, s in state.dirty.items() if s <= settled_through
                ]:
                    del state.dirty[obj]

    @staticmethod
    def _wake_replica_waiters(state: ReplicaReadState) -> None:
        if state.waiters:
            waiters, state.waiters = state.waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    def _park_on(self, state: ReplicaReadState, deadline: float):
        """Park until the shard's replica-read state changes or the
        deadline passes (whichever comes first)."""
        remaining = deadline - self.sim.now
        if remaining <= 0:
            return
        event = self.sim.event()
        state.waiters.append(event)
        try:
            yield from self.sim.wait(event, remaining)
        finally:
            if not event.triggered and event in state.waiters:
                state.waiters.remove(event)

    def _maybe_lease_query(self, shard_id: int, primary: str) -> None:
        """Ask the primary for a lease/watermark, at most once per ack
        timeout per shard (frames renew for free under write traffic, so
        queries only flow when a backup serves reads of a quiet or
        unsettled shard)."""
        last = self._last_lease_query.get(shard_id, float("-inf"))
        if self.sim.now - last < ACK_TIMEOUT_MS:
            return
        self._last_lease_query[shard_id] = self.sim.now
        self.endpoint.send(primary, LeaseQuery(shard_id, self.name, self.epoch))

    def _on_lease_query(self, message: LeaseQuery) -> None:
        if not self._replica_reads or self.shard_map is None:
            return
        if message.epoch != self.epoch:
            return  # stale epoch on either side: let config refresh fix it
        replica_set = self.shard_map.replica_set_or_none(message.shard_id)
        if (
            replica_set is None
            or replica_set.primary != self.name
            or message.backup not in replica_set.backups
        ):
            return  # deposed (or never) primary: grant nothing
        pipeline = self.pipelines.get(message.shard_id)
        settled = pipeline.settled_through if pipeline is not None else 0
        entries = self._cache_share.pop(message.shard_id, [])
        self.stats.lease_grants += 1
        grant = LeaseGrant(
            message.shard_id,
            self.epoch,
            self.name,
            settled,
            REPLICA_READ_LEASE_MS,
            entries,
        )
        self.endpoint.send(message.backup, grant)

    def _on_lease_grant(self, message: LeaseGrant) -> None:
        if not self._replica_reads or self.shard_map is None:
            return
        if message.epoch != self.epoch:
            return
        replica_set = self.shard_map.replica_set_or_none(message.shard_id)
        if replica_set is None or replica_set.primary != message.primary:
            return
        state = self._replica_state_for(message.shard_id, message.primary)
        expiry = self.sim.now + message.lease_ms
        if expiry > state.lease_expiry:
            state.lease_expiry = expiry
        self._advance_known_settled(state, message.settled_through)
        if message.cache_entries:
            self._install_shared_cache(message.cache_entries)
        self._wake_replica_waiters(state)

    # -- cross-replica cache sharing -------------------------------------------

    def _on_cache_store(
        self, object_id: str, method: str, digest: bytes, value, read_set: dict
    ) -> None:
        """ResultCache.on_store hook: queue a freshly memoised entry for
        piggybacking to this shard's backups (primary side only)."""
        if not self._replica_reads or self.shard_map is None:
            return
        own_shard = self.shard_map.shard_of_node(self.name)
        if (
            own_shard is None
            or own_shard.primary != self.name
            or not own_shard.backups
        ):
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
        cache = self.runtime.cache
        if cache is None:
            return
        get = self.runtime.storage.get
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

    def _on_replicate_ack(self, message: ReplicateAck) -> None:
        # One cumulative ack can settle many rounds; an ack for a shard
        # this node never led is a stray and carries nothing to record.
        pipeline = self.pipelines.get(message.shard_id)
        if pipeline is not None:
            pipeline.on_ack(message.backup, message.applied_through)

    # -- group-commit pipeline ------------------------------------------------

    def _current_backups(self, shard_id: int) -> list[str]:
        if self.shard_map is None:
            return []
        replica_set = self.shard_map.replica_set_or_none(shard_id)
        if replica_set is None:
            return []
        return [b for b in replica_set.backups if b != self.name]

    def _send_range_frame(
        self, shard_id: int, targets: list[str], first_sequence: int, rounds: list[bytes]
    ) -> None:
        message = ReplicateWritesRange(
            shard_id, self.epoch, first_sequence, rounds, self.name
        )
        pipeline = self.pipelines.get(shard_id)
        if pipeline is not None:
            message.settled_through = pipeline.settled_through
            if self._replica_reads:
                # Every frame doubles as a lease renewal and carries any
                # queued cache entries (drained once; retransmissions
                # carry none).
                message.lease_ms = REPLICA_READ_LEASE_MS
                entries = self._cache_share.pop(shard_id, None)
                if entries:
                    message.cache_entries = entries
        for target in targets:
            self.endpoint.send(target, message)

    def _pipeline_for(self, shard_id: int) -> ReplicationPipeline:
        pipeline = self.pipelines.get(shard_id)
        if pipeline is None:
            config = self.cluster.config
            labels = {**self._metric_labels, "role": "primary", "shard": str(shard_id)}
            pipeline = ReplicationPipeline(
                self.sim,
                shard_id,
                PrimaryReplicationLog(shard_id, self._registry, labels),
                send_frame=lambda targets, first, rounds, _sid=shard_id: (
                    self._send_range_frame(_sid, targets, first, rounds)
                ),
                backups_fn=lambda _sid=shard_id: self._current_backups(_sid),
                max_rounds=config.group_commit_max_rounds,
                flush_interval_ms=config.group_commit_flush_ms,
                name=f"{self.name}:s{shard_id}",
                registry=self._registry,
                labels=labels,
            )
            self.pipelines[shard_id] = pipeline
        return pipeline

    def _pipeline_wait(self, shard_id: int, waiter, parent=None):
        """Park until the pipeline's watermark covers ``waiter``'s round."""
        tracer = self.tracer
        if tracer is not None and parent is not None:
            span = tracer.start(
                "replicate",
                parent=parent,
                node=self.name,
                shard=shard_id,
                phase="watermark-wait",
            )
            try:
                yield waiter
            finally:
                tracer.end(span)
        else:
            yield waiter

    def _replicate_round(self, shard_id: int, payload: bytes, parent=None):
        """Replicate one encoded round through the shard's pipeline and
        wait until every live backup acked it."""
        waiter = self._pipeline_for(shard_id).submit(
            payload, objects=decode_round(payload)[1]
        )
        self._c_replication_rounds.inc()
        yield from self._pipeline_wait(shard_id, waiter, parent=parent)

    def _invoke_traced(self, root, request: ClientRequest):
        """Run the guest with the request's root span active, so invoke /
        cache / commit / nested-call spans nest under it (guest execution
        is synchronous: no other process interleaves)."""
        tracer = self.tracer
        if tracer is not None and root is not None:
            with tracer.activate(root):
                return self.runtime.invoke_detailed(
                    request.object_id, request.method, *request.args
                )
        return self.runtime.invoke_detailed(
            request.object_id, request.method, *request.args
        )

    # -- client requests ---------------------------------------------------

    def _reply(self, request: ClientRequest, reply: ClientReply) -> None:
        reply.server = self.name
        self.endpoint.send(request.client, reply)

    def _handle_request(self, request: ClientRequest):
        tracer = self.tracer
        root = None
        if tracer is not None:
            root = tracer.start(
                "request",
                trace_id=request.request_id,
                node=self.name,
                object=request.object_id.short,
                method=request.method,
            )
        try:
            yield from self._handle_request_inner(request, root)
        finally:
            if root is not None and not root.finished:
                tracer.end(root)

    def _handle_request_inner(self, request: ClientRequest, root=None):
        self._c_requests.inc()
        previous = self._completed.lookup(request.request_id)
        if previous is not None:
            self._reply(request, previous)
            return
        if self._completed.is_superseded(request.request_id):
            # A laggard duplicate of a request whose reply the client has
            # long since consumed (it moved on to higher counters).  The
            # stored reply was pruned; re-executing would break
            # at-most-once, and nobody is waiting — drop it.
            self.stats.dropped_stale_duplicates += 1
            return
        pending = self._inflight.get(request.request_id)
        if pending is not None:
            # A retry of a request still executing: wait for the original
            # rather than executing twice (at-most-once under retry storms).
            yield pending
            previous = self._completed.lookup(request.request_id)
            if previous is not None:
                self._reply(request, previous)
            return
        if self.shard_map is None or request.epoch < self.epoch:
            self.stats.rejected_wrong_epoch += 1
            self._reply(
                request,
                ClientReply(
                    request.request_id, False, error="wrong epoch", current_epoch=self.epoch
                ),
            )
            return
        if request.epoch > self.epoch:
            # The *node* is behind: the client has seen a newer
            # configuration than this node has installed.  Executing under
            # the stale shard map could route or commit wrongly, so reject
            # as retryable and catch up from the coordinators.
            self.stats.rejected_node_behind += 1
            self._reply(
                request,
                ClientReply(
                    request.request_id, False, error="node behind", current_epoch=self.epoch
                ),
            )
            self._request_config_refresh()
            return
        if str(request.object_id) in self._frozen:
            self._reply(
                request,
                ClientReply(
                    request.request_id,
                    False,
                    error="migration in progress",
                    current_epoch=self.epoch,
                ),
            )
            return

        replica_set = self.shard_map.shard_for(request.object_id)
        if not replica_set.has_member(self.name):
            # Stale routing (e.g. the object migrated away): retryable.
            self.stats.rejected_wrong_epoch += 1
            self._reply(
                request,
                ClientReply(
                    request.request_id, False, error="wrong epoch", current_epoch=self.epoch
                ),
            )
            return
        try:
            object_type = self.runtime.type_of(request.object_id)
            readonly = object_type.method_def(request.method).readonly
        except Exception as error:  # unknown object/method: report cleanly
            self._reply(
                request,
                ClientReply(request.request_id, False, error=str(error)),
            )
            return

        # Admission runs after the routing/dedupe checks — a stale-config
        # redirect is a cheap reply that must not consume rate tokens —
        # and before any execution resource is touched.
        admission = self._admission
        if readonly:
            if admission is None:
                yield from self._execute_readonly(request, root)
                return
            decision = admission.admit(
                request.tenant or request.client, readonly=True
            )
            if not decision.admitted:
                self._shed(request, decision)
                return
            try:
                yield from self._execute_readonly(request, root)
            finally:
                admission.release()
        else:
            if self.name != replica_set.primary:
                self.stats.rejected_not_primary += 1
                self._reply(
                    request,
                    ClientReply(
                        request.request_id,
                        False,
                        error="not primary",
                        current_epoch=self.epoch,
                    ),
                )
                return
            if admission is not None:
                decision = admission.admit(
                    request.tenant or request.client, readonly=False
                )
                if not decision.admitted:
                    self._shed(request, decision)
                    return
            completion = self.sim.event()
            self._inflight[request.request_id] = completion
            try:
                yield from self._execute_mutating(request, replica_set.shard_id, root)
            finally:
                if admission is not None:
                    admission.release()
                self._inflight.pop(request.request_id, None)
                if not completion.triggered:
                    completion.succeed()

    def _escalate_trace(self, request_id: str, reason: str) -> None:
        """Force-trace an anomalous request despite head sampling."""
        tracer = self.tracer
        if tracer is not None:
            tracer.escalate(request_id, reason=reason, node=self.name)

    def _shed(self, request: ClientRequest, decision: Any) -> None:
        """Answer a shed request with server-advised backoff.

        Nothing executed, so nothing enters the at-most-once table — a
        retry of a shed request is a fresh admission decision.
        """
        self.stats.shed_requests += 1
        self._escalate_trace(request.request_id, "shed")
        self.endpoint.send(
            request.client,
            RetryAfter(
                request.request_id,
                decision.retry_after_ms,
                reason=decision.reason,
                server=self.name,
            ),
        )

    def _request_config_refresh(self) -> None:
        """Ask a coordinator for the latest configuration (rate-limited;
        rotates through coordinators so one dead coordinator cannot wedge
        the catch-up path)."""
        coordinators = self.cluster.coordinator_names()
        if not coordinators:
            return
        if self.sim.now - self._last_config_query < HEARTBEAT_INTERVAL_MS:
            return
        self._last_config_query = self.sim.now
        self.stats.config_refreshes += 1
        self._config_query_counter += 1
        target = coordinators[self._config_query_counter % len(coordinators)]
        query = ConfigQuery(f"{self.name}#{self._config_query_counter}")
        self.endpoint.send(target, query)

    def _note_load(self, request: ClientRequest) -> None:
        key = str(request.object_id)
        self.object_load[key] = self.object_load.get(key, 0) + 1

    def _execute_readonly(self, request: ClientRequest, root=None):
        """Read path.

        At the primary, committed-but-unacked writes are visible (the
        object lock is released at local commit), so the reply parks
        behind a *per-object* settlement barrier: only the last unsettled
        sequence that wrote the read objects gates it — reads of clean
        objects never park.  At a backup, the replica-read lease protocol
        applies (see :meth:`_execute_readonly_backup`).  Either way a
        later read at any replica can never contradict what this read
        observed."""
        replica_set = self.shard_map.shard_for(request.object_id)
        if replica_set.primary != self.name:
            yield from self._execute_readonly_backup(request, replica_set, root)
            return
        self._c_readonly_requests.inc()
        self._note_load(request)
        arrived = self.sim.now
        yield self.cpu.request()
        started = self.sim.now
        result = None
        error_text = None
        try:
            try:
                result = self._invoke_traced(root, request)
            except (InvocationError, UnknownObjectError) as error:
                self._c_failed_invocations.inc()
                self._escalate_trace(request.request_id, "invoke.error")
                error_text = str(error)
            if result is not None:
                yield self.sim.timeout(result.fuel_used * self.ms_per_fuel)
        finally:
            self._c_busy_ms.inc(self.sim.now - started)
            self.cpu.release()
        try:
            if error_text is not None:
                self._reply(request, ClientReply(request.request_id, False, error=error_text))
                return
            pipeline = self.pipelines.get(replica_set.shard_id)
            fence = None
            if pipeline is not None:
                if result.sub_results:
                    # Nested dispatches may have exposed *any* object's
                    # unsettled writes: fall back to the full watermark.
                    required = pipeline.log.last_assigned
                else:
                    required = pipeline.required_for(
                        (str(request.object_id).encode(),)
                    )
                if required > pipeline.settled_through:
                    event = pipeline.barrier(required)
                    if not event.triggered:
                        tracer = self.tracer
                        if tracer is not None and root is not None:
                            span = tracer.start(
                                "read.barrier", parent=root, node=self.name,
                                shard=replica_set.shard_id,
                            )
                            try:
                                yield event
                            finally:
                                tracer.end(span)
                        else:
                            yield event
                if pipeline.settled_through:
                    fence = (
                        replica_set.shard_id, self.name, pipeline.settled_through
                    )
            self._reply(
                request,
                ClientReply(request.request_id, True, value=result.value, fence=fence),
            )
        finally:
            if self._request_hist is not None:
                self._request_hist["readonly"].observe(self.sim.now - arrived)

    def _reject(self, request: ClientRequest, error: str) -> None:
        self._reply(
            request,
            ClientReply(request.request_id, False, error=error, current_epoch=self.epoch),
        )

    def _execute_readonly_backup(self, request: ClientRequest, replica_set, root=None):
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
        shard_id = replica_set.shard_id
        if not self._replica_reads:
            # Without leases a backup must not serve reads at all (it
            # would skip the settlement barrier).
            self.stats.rejected_not_primary += 1
            self._reject(request, "not primary")
            return
        self._c_readonly_requests.inc()
        self._note_load(request)
        arrived = self.sim.now
        primary = replica_set.primary
        state = self._replica_state_for(shard_id, primary)
        # A fence is a settlement proof: the client observed a reply
        # derived from settled sequence ``min_applied`` under this
        # primaryship, so the watermark is at least that.
        self._advance_known_settled(state, request.min_applied)
        deadline = self.sim.now + READ_PARK_MS
        self._parked_reads += 1
        try:
            ready = yield from self._await_replica_ready(
                request, shard_id, primary, state, deadline
            )
            if not ready:
                return
            yield self.cpu.request()
            started = self.sim.now
            result = None
            error_text = None
            try:
                try:
                    result = self._invoke_traced(root, request)
                except (InvocationError, UnknownObjectError) as error:
                    self._c_failed_invocations.inc()
                    self._escalate_trace(request.request_id, "invoke.error")
                    error_text = str(error)
                if result is not None:
                    yield self.sim.timeout(result.fuel_used * self.ms_per_fuel)
            finally:
                self._c_busy_ms.inc(self.sim.now - started)
                self.cpu.release()
            if error_text is not None:
                self._reply(
                    request, ClientReply(request.request_id, False, error=error_text)
                )
                return
            if result.sub_results:
                # Nested dispatches executed remotely at their owners'
                # runtimes and may expose state no watermark this replica
                # knows about covers; bounce to the primary's barrier.
                self.stats.rejected_not_primary += 1
                self._reject(request, "not primary")
                return
            required = state.dirty.get(str(request.object_id).encode(), 0)
            released = yield from self._await_settled(
                request, shard_id, primary, state, required, deadline
            )
            if not released:
                return
            self._c_replica_reads_served.inc()
            fence = (
                (shard_id, primary, state.known_settled)
                if state.known_settled
                else None
            )
            self._reply(
                request,
                ClientReply(request.request_id, True, value=result.value, fence=fence),
            )
        finally:
            self._parked_reads -= 1
            if self._request_hist is not None:
                self._request_hist["readonly"].observe(self.sim.now - arrived)

    def _await_replica_ready(
        self, request: ClientRequest, shard_id: int, primary: str,
        state: ReplicaReadState, deadline: float,
    ):
        """Pre-execution gate for a backup read: park until this backup
        holds a valid lease and has applied the client's fence.  Returns
        False after sending a retryable rejection."""
        while True:
            if self.shard_map is None:
                self.stats.rejected_wrong_epoch += 1
                self._reject(request, "wrong epoch")
                return False
            current = self.shard_map.shard_for(request.object_id)
            if (
                current.shard_id != shard_id
                or current.primary != primary
                or not current.has_member(self.name)
            ):
                # Reconfigured while parked: the lease state no longer
                # describes this shard's primaryship.
                self.stats.rejected_wrong_epoch += 1
                self._reject(request, "wrong epoch")
                return False
            applier = self.backup_appliers.get(shard_id)
            applied = applier.applied_through if applier is not None else 0
            lease_ok = self.sim.now < state.lease_expiry
            if lease_ok and applied >= request.min_applied:
                return True
            if self.sim.now >= deadline:
                if not lease_ok:
                    self.stats.lease_rejections += 1
                    self._reject(request, "no lease")
                else:
                    self.stats.replica_behind_rejections += 1
                    self._reject(request, "replica behind")
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
        while state.known_settled < required:
            if self.sim.now >= deadline:
                self.stats.replica_behind_rejections += 1
                self._reject(request, "replica behind")
                return False
            if self.shard_map is not None:
                current = self.shard_map.shard_for(request.object_id)
                if current.primary != primary:
                    # Deposed primary: its watermark can never advance to
                    # cover the unsettled write this result exposes.
                    self.stats.rejected_wrong_epoch += 1
                    self._reject(request, "wrong epoch")
                    return False
            self._maybe_lease_query(shard_id, primary)
            yield from self._park_on(state, deadline)
        return True

    def _execute_mutating(self, request: ClientRequest, shard_id: int, root=None):
        self._c_mutating_requests.inc()
        self._note_load(request)
        tracer = self.tracer
        arrived = self.sim.now
        object_key = str(request.object_id)
        if tracer is not None and root is not None:
            lock_span = tracer.start("lock.wait", parent=root, object=request.object_id.short)
            yield self.locks.acquire(object_key)
            tracer.end(lock_span)
        else:
            yield self.locks.acquire(object_key)
        locked = True
        try:
            yield self.cpu.request()
            started = self.sim.now
            try:
                capture = self.cluster.begin_capture()
                try:
                    result = self._invoke_traced(root, request)
                except (InvocationError, UnknownObjectError) as error:
                    self._c_failed_invocations.inc()
                    self._escalate_trace(request.request_id, "invoke.error")
                    reply = ClientReply(request.request_id, False, error=str(error))
                    self._completed.record(request.request_id, reply)
                    self._reply(request, reply)
                    return
                finally:
                    self.cluster.end_capture()
                # Charge the top-level function's own CPU on the held core.
                yield self.sim.timeout(result.fuel_used * self.ms_per_fuel)
            finally:
                self._c_busy_ms.inc(self.sim.now - started)
                self.cpu.release()

            # Locally executed nested invocations run in parallel across
            # this node's cores (§3.2); total core-time is conserved, only
            # latency shrinks.
            local_fuel = _fuel_on_node(result, capture)
            subs_fuel = max(local_fuel - result.fuel_used, 0.0)
            if subs_fuel > 0:
                lanes = min(FANOUT_PARALLELISM, max(len(result.sub_results), 1))
                charges = [
                    self.sim.process(
                        self._charge_cpu(subs_fuel / lanes), name=f"{self.name}.fan"
                    )
                    for _ in range(lanes)
                ]
                yield self.sim.all_of(charges)

            # Replication of this node's own writes.
            own_payload, own_objects = capture.round_for(self.name)
            probe = self.cluster.mc_crash_probe
            if probe is not None and not self.crashed:
                # Crash point: the write set is committed locally but has
                # not entered replication — the classic lost-update site.
                probe(self.name, "pre-replicate")
            # Execution is decoupled from replication: the write set is
            # committed locally and enqueued on the shard's pipeline, the
            # object lock is released so later invocations of *this*
            # object (and others) execute while the frame is in flight,
            # and only the client reply parks on the cumulative-ack
            # watermark.  Linearizability holds because the reply is
            # released only once every sequence <= its own is acked by
            # all live backups (§4.2.1).
            waiter = None
            if own_payload:
                waiter = self._pipeline_for(shard_id).submit(own_payload, own_objects)
                self._c_replication_rounds.inc()
            self.locks.release(object_key)
            locked = False
            if probe is not None and not self.crashed:
                # Crash point: the round is on the pipeline (frame
                # possibly in flight) but the reply is still parked on
                # the settlement watermark.
                probe(self.name, "post-submit")

            # Bill remote nested dispatches to their owners.
            for index, (owner_name, sub_result) in enumerate(capture.remote_dispatches):
                charge = RemoteCharge(
                    charge_id=f"{self.name}#{request.request_id}#{index}",
                    fuel=sub_result.total_fuel(),
                    payload=capture.round_for(owner_name)[0],
                    sender=self.name,
                    trace_id=request.request_id,
                )
                yield from self._send_charge(charge, owner_name, parent=root)

            fence = None
            if waiter is not None:
                yield from self._pipeline_wait(shard_id, waiter, parent=root)
                pipeline = self.pipelines.get(shard_id)
                if pipeline is not None and pipeline.settled_through:
                    fence = (shard_id, self.name, pipeline.settled_through)
            reply = ClientReply(
                request.request_id, True, value=result.value, fence=fence
            )
            self._completed.record(request.request_id, reply)
            self._reply(request, reply)
        finally:
            if locked:
                self.locks.release(object_key)
            if self._request_hist is not None:
                self._request_hist["mutating"].observe(self.sim.now - arrived)

    def _send_charge(self, charge: RemoteCharge, owner_name: str, parent=None):
        """Deliver a RemoteCharge with bounded retransmission + backoff.

        The charge carries the owner's writes for replication to
        its backups, so dropping it on first timeout would silently lose
        those writes' replication.  Retransmit until acked or the attempt
        budget runs out (the owner is then presumed dead and its shard's
        reconfiguration takes over); dedupe at the owner keeps
        retransmissions at-most-once."""
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.start(
                "remote_charge", parent=parent, node=self.name, owner=owner_name
            )
        event = self.sim.event()
        self._charge_waiters[charge.charge_id] = event
        timeout_ms = ACK_TIMEOUT_MS * 2
        try:
            for attempt in range(CHARGE_MAX_ATTEMPTS):
                if attempt:
                    self.stats.remote_charge_retries += 1
                self.endpoint.send(owner_name, charge)
                yield from self.sim.wait(event, timeout_ms)
                if event.triggered:
                    return True
                timeout_ms *= 2
            self.stats.remote_charge_timeouts += 1
            if span is not None:
                span.status = "timeout"
            return False
        finally:
            self._charge_waiters.pop(charge.charge_id, None)
            if span is not None:
                tracer.end(span, status=span.status)

    def _charge_cpu(self, fuel: float):
        """Occupy one core for ``fuel`` worth of simulated time."""
        yield self.cpu.request()
        started = self.sim.now
        try:
            yield self.sim.timeout(fuel * self.ms_per_fuel)
        finally:
            self._c_busy_ms.inc(self.sim.now - started)
            self.cpu.release()

    def _handle_remote_charge(self, message: RemoteCharge):
        """Charge CPU + replication for a nested invocation executed here."""
        self.stats.remote_charges += 1
        tracer = self.tracer
        span = None
        if tracer is not None and message.trace_id:
            # Joins the originating request's trace as a second root on
            # this node (the cross-node correlation key is the request id).
            span = tracer.start(
                "remote_charge.settle",
                trace_id=message.trace_id,
                node=self.name,
                sender=message.sender,
            )
        try:
            yield self.cpu.request()
            started = self.sim.now
            try:
                yield self.sim.timeout(message.fuel * self.ms_per_fuel)
            finally:
                self._c_busy_ms.inc(self.sim.now - started)
                self.cpu.release()
            if message.payload and self.shard_map is not None:
                own_shard = self.shard_map.shard_of_node(self.name)
                if own_shard is not None and own_shard.primary == self.name:
                    yield from self._replicate_round(
                        own_shard.shard_id, message.payload, parent=span
                    )
            if message.charge_id in self._charges_seen:
                self._charges_seen[message.charge_id] = True
            ack = RemoteChargeAck(message.charge_id)
            self.endpoint.send(message.sender, ack)
        finally:
            if span is not None:
                tracer.end(span)

    # -- migration ---------------------------------------------------------

    def _handle_freeze(self, message: FreezeObject):
        """Freeze an object and dump its microshard (migration step 1)."""
        object_key = str(message.object_id)
        yield self.locks.acquire(object_key)
        try:
            self._frozen.add(object_key)
            prefix = keyspace.object_prefix(message.object_id)
            entries = list(self.runtime.storage.iterate(prefix, keyspace.prefix_end(prefix)))
            reply = FreezeReply(message.freeze_id, entries)
            self.endpoint.send(message.sender, reply)
        finally:
            self.locks.release(object_key)

    def _drop_object(self, object_id: ObjectId):
        """Delete a migrated-away object's local data and replicate the
        deletion to this shard's backups."""
        prefix = keyspace.object_prefix(object_id)
        batch = WriteBatch()
        for key, _value in self.runtime.storage.iterate(prefix, keyspace.prefix_end(prefix)):
            batch.delete(key)
        if not batch:
            return
        self.runtime.storage.apply(batch)
        if self.runtime.cache is not None:
            self.runtime.cache.invalidate_keys([k for _kind, k, _v in batch.items()])
        if self.shard_map is not None:
            own_shard = self.shard_map.shard_of_node(self.name)
            if own_shard is not None and own_shard.primary == self.name:
                yield from self._replicate_round(
                    own_shard.shard_id, encode_round([batch])[0]
                )

    def _handle_migrate_in(self, message: MigrateObject) -> None:
        """Install a migrated object's state (migration step 2)."""
        batch = WriteBatch()
        for key, value in message.entries:
            batch.put(key, value)
        self.runtime.storage.apply(batch)
        # Propagate to this shard's backups outside the request path.
        if self.shard_map is not None:
            own_shard = self.shard_map.shard_of_node(self.name)
            if own_shard is not None and own_shard.primary == self.name and batch:
                self.sim.process(
                    self._replicate_round(own_shard.shard_id, encode_round([batch])[0]),
                    name=f"{self.name}.migrate-repl",
                )
        ack = MigrateAck(message.object_id, True)
        self.endpoint.send(message.sender, ack)


def _fuel_on_node(result: InvocationResult, capture: ExecutionCapture) -> float:
    """Fuel attributable to the executing node: everything except fuel of
    remote nested dispatches (those are billed to their owners)."""
    remote_fuel = sum(sub.total_fuel() for _owner, sub in capture.remote_dispatches)
    return max(result.total_fuel() - remote_fuel, 0.0)
