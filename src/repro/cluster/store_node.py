"""Storage nodes: where objects live and their methods execute (§4.2).

A node is primary for some microshards and backup for others.  Mutating
invocations run at the primary under the per-object lock, commit locally,
and enqueue their write batches on the shard's replication pipeline; the
client reply waits until every live backup acked them.  Read-only
invocations run at the primary behind a settlement barrier, or at a
lease-holding backup, and use the node's consistent result cache.

:class:`StoreNode` keeps the invocation path and replication/settlement;
each other protocol is a component it calls (DESIGN.md §5q).

Time accounting (see DESIGN.md): guest code executes synchronously at one
simulated instant; the node then *charges* the modelled durations — CPU
time derived from metered fuel while holding a core, replication round
trips as real simulated messages — before replying.  Per-object locks are
held across the modelled execution time, so scheduling-as-concurrency-
control behaves exactly as in the paper.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from repro.core import keyspace
from repro.core.ids import ObjectId
from repro.core.storage import MemoryBackend
from repro.cluster.messages import ClientReply, ClientRequest, ReplicateAck, ReplicateWritesRange
from repro.cluster.coordinator import NodeMembership
from repro.cluster.execution import ClusterNodeRuntime
from repro.cluster.migration import NodeMigration
from repro.cluster.remote_charge import RemoteCharges
from repro.cluster.replica_reads import ReplicaReads
from repro.cluster.replication import (
    BackupAcks,
    BackupApplier,
    PrimaryReplicationLog,
    ReplicationPipeline,
)
from repro.cluster.scheduler import ObjectLockTable
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


class Outstanding(NamedTuple):
    """A node's unfinished work (:meth:`StoreNode.outstanding`); the node
    is busy while any field is non-empty."""

    #: ids of mutating requests still executing, sorted
    inflight: tuple
    #: remote charges sent and not yet acked
    remote_charges: int
    #: backup reads parked on a lease or the settlement watermark
    parked_reads: int
    #: deferred acks: ``((primary, ((shard_id, applied_through), ...)), ...)``
    pending_acks: tuple


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
        registry = self._registry = cluster.metrics
        labels = self._metric_labels = {"node": name}
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
        self._init_metrics(registry, labels)
        self.runtime.commit_hook = self._on_commit
        self.epoch = 0
        self.shard_map = None
        self.backup_appliers: dict[int, BackupApplier] = {}
        #: group-commit replication (§4.2.1 + pipelining), one per led shard
        self.pipelines: dict[int, ReplicationPipeline] = {}
        #: request_id -> ClientReply already sent (at-most-once per primary,
        #: bounded by per-client watermarks + an LRU cap); owned by the
        #: endpoint, which exports its occupancy/eviction gauges
        self._completed = self.endpoint.dedupe
        #: request_id -> completion event for requests still executing, so
        #: client retries of an in-flight request never re-execute it
        self._inflight: dict[str, Any] = {}
        #: per-object invocation counts since the last rebalancer sweep
        self.object_load: dict[str, int] = {}
        self.crashed = False
        self._wire_protocols(config)

    def _init_metrics(self, registry, labels: dict) -> None:
        """The request-time histograms and the node's counters."""
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
        self.stats = NodeStats(registry, labels)
        # Preresolved counter handles for the per-request hot path (see
        # StatsView.handle): one attribute bump instead of dict lookups.
        self._c_requests = self.stats.cell("requests")
        self._c_readonly_requests = self.stats.cell("readonly_requests")
        self._c_mutating_requests = self.stats.cell("mutating_requests")
        self._c_failed_invocations = self.stats.cell("failed_invocations")
        self._c_replication_rounds = self.stats.cell("replication_rounds")
        self._c_busy_ms = self.stats.cell("busy_ms")

    def _wire_protocols(self, config) -> None:
        """Build the protocol components (each registers its own message
        handlers) and register the node's own handlers."""
        self.replica_reads = ReplicaReads(self, config.replica_reads)
        self.acks = BackupAcks(
            self, config.transport_coalescing, config.ack_flush_ms,
            self.replica_reads.renewal_query,
        )
        self.remote_charges = RemoteCharges(self, COMPLETED_CAP)
        self.migration = NodeMigration(self)
        self.membership = NodeMembership(self)
        endpoint = self.endpoint
        endpoint.on(ClientRequest, self._handle_request, spawn="req")
        endpoint.on(ReplicateWritesRange, self._on_replicate_range)
        endpoint.on(ReplicateAck, self._on_replicate_ack)

    # -- wiring -------------------------------------------------------------

    @property
    def tracer(self):
        """The cluster-wide span tracer, or None when tracing is off."""
        return self.cluster.tracer

    def start(self) -> None:
        self.endpoint.start()
        self.membership.start_heartbeats()

    def crash(self) -> None:
        """Fail-stop: no further sends or receives."""
        self.crashed = True
        self.net.crash(self.name)
        # Deferred acks die with the node; the primary's watchdog
        # retransmits and fresh acks accumulate after recovery.
        self.acks.clear()

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
        self.membership.start_heartbeats()

    def outstanding(self) -> Outstanding:
        """This node's unfinished work, for quiescence and bookkeeping
        checks (``Cluster.is_quiet``, the consistency checker, the model
        checker's state fingerprint)."""
        return Outstanding(
            inflight=tuple(sorted(self._inflight)),
            remote_charges=self.remote_charges.awaiting_ack,
            parked_reads=self.replica_reads.parked,
            pending_acks=self.acks.snapshot(),
        )

    def owner_node_for(self, object_id: ObjectId) -> Optional["StoreNode"]:
        """The StoreNode acting as primary for ``object_id`` (or None)."""
        if self.shard_map is None:
            return None
        return self.cluster.node(self.shard_map.primary_for(object_id))

    def led_shard(self):
        """The replica set this node is primary of, or None."""
        if self.shard_map is None:
            return None
        own_shard = self.shard_map.shard_of_node(self.name)
        if own_shard is None or own_shard.primary != self.name:
            return None
        return own_shard

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
        # Crash point: the backup applied the frame but its ack (and any
        # lease absorption) may never leave the node.
        self._crash_point("backup-applied")
        self.acks.ack(message.primary, message.shard_id, applier.applied_through)
        self.replica_reads.on_frame(message)

    def _crash_point(self, site: str) -> None:
        """Offer the model checker's crash probe (when one is installed)
        the chance to crash this node at ``site``."""
        probe = self.cluster.mc_crash_probe
        if probe is not None and not self.crashed:
            probe(self.name, site)

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
            self.replica_reads.stamp_frame(message, shard_id)
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

    def _traced_wait(self, event, parent, name: str, **attrs):
        """Yield ``event``, inside a ``name`` span under ``parent`` when
        the request is traced."""
        tracer = self.tracer
        if tracer is None or parent is None:
            yield event
            return
        span = tracer.start(name, parent=parent, **attrs)
        try:
            yield event
        finally:
            tracer.end(span)

    def _pipeline_wait(self, shard_id: int, waiter, parent=None):
        """Park until the pipeline's watermark covers ``waiter``'s round."""
        yield from self._traced_wait(
            waiter, parent, "replicate", node=self.name, shard=shard_id, phase="watermark-wait"
        )

    def replicate_round(self, shard_id: int, payload: bytes, parent=None):
        """Replicate one encoded round through the shard's pipeline and
        wait until every live backup acked it."""
        waiter = self._pipeline_for(shard_id).submit(
            payload, objects=decode_round(payload)[1]
        )
        self._c_replication_rounds.inc()
        yield from self._pipeline_wait(shard_id, waiter, parent=parent)

    def commit_local(self, batch: WriteBatch):
        """Apply ``batch`` outside the invocation path (a 2PC commit, a
        migrated-away object's deletion), invalidate the cached results
        it touches, and replicate it on the shard this node leads."""
        self.runtime.storage.apply(batch)
        if self.runtime.cache is not None:
            self.runtime.cache.invalidate_keys([key for _kind, key, _v in batch.items()])
        own_shard = self.led_shard()
        if own_shard is not None:
            yield from self.replicate_round(own_shard.shard_id, encode_round([batch])[0])

    def charge_cpu(self, fuel: float):
        """Occupy one core for ``fuel`` worth of simulated time."""
        yield self.cpu.request()
        started = self.sim.now
        try:
            yield self.sim.timeout(fuel * self.ms_per_fuel)
        finally:
            self._c_busy_ms.inc(self.sim.now - started)
            self.cpu.release()

    # -- client requests ---------------------------------------------------

    def reply(self, request: ClientRequest, reply: ClientReply) -> None:
        reply.server = self.name
        self.endpoint.send(request.client, reply)

    def reject(self, request: ClientRequest, error: str, counter: Optional[str] = None) -> None:
        """Send a retryable rejection carrying this node's epoch, counted
        under the ``counter`` stat when one is named."""
        if counter is not None:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        self.reply(
            request,
            ClientReply(request.request_id, False, error=error, current_epoch=self.epoch),
        )

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
            self.reply(request, previous)
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
                self.reply(request, previous)
            return
        if self.shard_map is None or request.epoch < self.epoch:
            self.reject(request, "wrong epoch", "rejected_wrong_epoch")
            return
        if request.epoch > self.epoch:
            # The *node* is behind: the client has seen a newer
            # configuration than this node has installed.  Executing under
            # the stale shard map could route or commit wrongly, so reject
            # as retryable and catch up from the coordinators.
            self.reject(request, "node behind", "rejected_node_behind")
            self.membership.request_config_refresh()
            return
        if self.migration.is_frozen(request.object_id):
            self.reject(request, "migration in progress")
            return
        replica_set = self.shard_map.shard_for(request.object_id)
        if not replica_set.has_member(self.name):
            # Stale routing (e.g. the object migrated away): retryable.
            self.reject(request, "wrong epoch", "rejected_wrong_epoch")
            return
        try:
            object_type = self.runtime.type_of(request.object_id)
            readonly = object_type.method_def(request.method).readonly
        except Exception as error:  # unknown object/method: report cleanly
            self.reply(request, ClientReply(request.request_id, False, error=str(error)))
            return
        if not readonly and self.name != replica_set.primary:
            self.reject(request, "not primary", "rejected_not_primary")
            return
        # Admission runs after the routing/dedupe checks — a stale-config
        # redirect is a cheap reply that must not consume rate tokens —
        # and before any execution resource is touched.
        admission = self._admission
        if admission is not None:
            decision = admission.admit(request.tenant or request.client, readonly=readonly)
            if not decision.admitted:
                self._shed(request, decision)
                return
        try:
            if readonly:
                yield from self._execute_readonly(request, root)
            else:
                yield from self._execute_mutating(request, replica_set.shard_id, root)
        finally:
            if admission is not None:
                admission.release()

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

    def _note_load(self, request: ClientRequest) -> None:
        key = str(request.object_id)
        self.object_load[key] = self.object_load.get(key, 0) + 1

    def run_on_core(self, request: ClientRequest, root=None):
        """Execute a read-only invocation on one core, holding the core
        for its modelled CPU time.  Returns the result, or None after
        replying with the invocation's error."""
        yield self.cpu.request()
        started = self.sim.now
        try:
            try:
                result = self.runtime.invoke_request(request, root)
            except (InvocationError, UnknownObjectError) as error:
                self._c_failed_invocations.inc()
                self._escalate_trace(request.request_id, "invoke.error")
                error_text = str(error)
            else:
                yield self.sim.timeout(result.fuel_used * self.ms_per_fuel)
                return result
        finally:
            self._c_busy_ms.inc(self.sim.now - started)
            self.cpu.release()
        self.reply(request, ClientReply(request.request_id, False, error=error_text))
        return None

    def timed_read(self, request: ClientRequest, body):
        """Run ``body``, one read path's generator, as a counted and
        timed read-only request."""
        self._c_readonly_requests.inc()
        self._note_load(request)
        arrived = self.sim.now
        try:
            yield from body
        finally:
            if self._request_hist is not None:
                self._request_hist["readonly"].observe(self.sim.now - arrived)

    def _execute_readonly(self, request: ClientRequest, root=None):
        """Read path.

        At the primary, committed-but-unacked writes are visible (the
        object lock is released at local commit), so the reply parks
        behind a *per-object* settlement barrier: only the last unsettled
        sequence that wrote the read objects gates it — reads of clean
        objects never park.  At a backup, the replica-read lease protocol
        applies (:meth:`ReplicaReads.serve`).  Either way a later read at
        any replica can never contradict what this read observed."""
        replica_set = self.shard_map.shard_for(request.object_id)
        if replica_set.primary != self.name:
            yield from self.replica_reads.serve(request, replica_set, root)
            return
        yield from self.timed_read(
            request, self._read_at_primary(request, replica_set.shard_id, root)
        )

    def _read_at_primary(self, request: ClientRequest, shard_id: int, root):
        result = yield from self.run_on_core(request, root)
        if result is None:
            return
        pipeline = self.pipelines.get(shard_id)
        fence = None
        if pipeline is not None:
            if result.sub_results:
                # Nested dispatches may have exposed *any* object's
                # unsettled writes: fall back to the full watermark.
                required = pipeline.log.last_assigned
            else:
                required = pipeline.required_for((str(request.object_id).encode(),))
            if required > pipeline.settled_through:
                event = pipeline.barrier(required)
                if not event.triggered:
                    yield from self._traced_wait(
                        event, root, "read.barrier", node=self.name, shard=shard_id
                    )
            if pipeline.settled_through:
                fence = (shard_id, self.name, pipeline.settled_through)
        self.reply(
            request, ClientReply(request.request_id, True, value=result.value, fence=fence)
        )

    def _execute_mutating(self, request: ClientRequest, shard_id: int, root=None):
        completion = self.sim.event()
        self._inflight[request.request_id] = completion
        self._c_mutating_requests.inc()
        self._note_load(request)
        arrived = self.sim.now
        object_key = str(request.object_id)
        locked = False
        try:
            yield from self._traced_wait(
                self.locks.acquire(object_key), root, "lock.wait",
                object=request.object_id.short,
            )
            locked = True
            yield self.cpu.request()
            started = self.sim.now
            try:
                capture = self.cluster.begin_capture()
                try:
                    result = self.runtime.invoke_request(request, root)
                except (InvocationError, UnknownObjectError) as error:
                    self._c_failed_invocations.inc()
                    self._escalate_trace(request.request_id, "invoke.error")
                    reply = ClientReply(request.request_id, False, error=str(error))
                    self._completed.record(request.request_id, reply)
                    self.reply(request, reply)
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
            local_fuel = capture.local_fuel(result)
            subs_fuel = max(local_fuel - result.fuel_used, 0.0)
            if subs_fuel > 0:
                lanes = min(FANOUT_PARALLELISM, max(len(result.sub_results), 1))
                charges = [
                    self.sim.process(
                        self.charge_cpu(subs_fuel / lanes), name=f"{self.name}.fan"
                    )
                    for _ in range(lanes)
                ]
                yield self.sim.all_of(charges)

            # Replication of this node's own writes.
            own_payload, own_objects = capture.round_for(self.name)
            # Crash point: the write set is committed locally but has not
            # entered replication — the classic lost-update site.
            self._crash_point("pre-replicate")
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
            # Crash point: the round is on the pipeline (frame possibly in
            # flight) but the reply is still parked on the settlement
            # watermark.
            self._crash_point("post-submit")

            # Bill remote nested dispatches to their owners.
            yield from self.remote_charges.bill(request.request_id, capture, parent=root)

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
            self.reply(request, reply)
        finally:
            if locked:
                self.locks.release(object_key)
            if self._request_hist is not None:
                self._request_hist["mutating"].observe(self.sim.now - arrived)
            self._inflight.pop(request.request_id, None)
            if not completion.triggered:
                completion.succeed()
