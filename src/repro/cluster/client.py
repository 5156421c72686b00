"""Cluster clients: routing, retries, and reconfiguration handling.

Clients contact storage nodes directly (the paper's evaluation runs with
no load balancer or frontend): mutating invocations go to the object's
primary; read-only ones prefer a lease-holding backup when replica reads
are enabled (falling back to the primary otherwise).  On a wrong-epoch,
not-primary, or lease rejection — or a timeout after a node failure —
the client refreshes its configuration from the coordination service and
retries with backoff.  Successful replies carry a monotonic-read fence
(the settled sequence the reply reflects); the client threads the
highest fence it has seen back into later reads as ``min_applied`` so it
can never observe a settled write and then read older backup state.

All request/reply traffic rides an :class:`RpcStub`.  :meth:`invoke`
runs its own retry loop inside one logical stub call: each attempt
re-draws the route and rebuilds the request with the client's current
epoch and fence, and the backoff before attempt ``n + 1`` is
``uniform(0.1, 0.5) * (1 + n)`` ms drawn from this client's own random
stream (``client.<name>``), or the server's advice after a
:class:`RetryAfter`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.messages import ClientReply, ClientRequest, ConfigQuery, ConfigReply
from repro.core.ids import ObjectId
from repro.errors import InvocationFailed, RequestTimeout
from repro.rpc import RetryAfter, RpcStub


class ClusterClient:
    """One simulated client endpoint; drive it from a simulation process."""

    #: reply errors that mean "back off, refresh config, and retry"
    RETRYABLE_ERRORS = (
        "wrong epoch",
        "node behind",
        "not primary",
        "migration in progress",
        "no lease",
        "replica behind",
    )

    #: how long a backup that rejected a read stays off the read route
    REPLICA_PENALTY_MS = 5.0

    #: the penalty map never grows past this many entries (a long-lived
    #: client in a large cluster would otherwise accumulate one entry per
    #: backup it ever saw reject)
    PENALTY_CAP = 64

    def __init__(
        self,
        cluster: Any,
        name: str,
        request_timeout_ms: float = 1_000.0,
        max_attempts: int = 40,
        recorder: Any = None,
        tenant: Optional[str] = None,
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.net = cluster.net
        self.name = name
        #: the tenant requests bill against under admission control
        #: (defaults to the client name — every client its own tenant)
        self.tenant = tenant if tenant is not None else name
        self._counter = 0
        self._rng = self.sim.rng(f"client.{name}")
        self.epoch = cluster.bootstrap_epoch
        self.shard_map = cluster.bootstrap_shard_map
        self._max_attempts = max_attempts
        #: whether read-only requests prefer lease-holding backups
        self.replica_reads = cluster.config.replica_reads
        #: monotonic-read fences: (shard_id, primary) -> highest settled
        #: sequence this client has observed for that primaryship
        self._fences: dict[tuple[int, str], int] = {}
        #: backups that recently rejected a read, mapped to the sim time
        #: their routing penalty expires
        self._penalty: dict[str, float] = {}
        #: optional repro.core.linearizability.HistoryRecorder: every
        #: invocation is logged as (invoke_at, return_at, object, method,
        #: args, result), the records check_linearizable reads
        self.recorder = recorder
        # Unmatched mailbox payloads are stale replies to abandoned
        # attempts (every wait in this client is strictly sequential), so
        # the stub discards them on each scan.
        self.stub = RpcStub(
            cluster.sim,
            cluster.net,
            name,
            default_deadline_ms=request_timeout_ms,
            discard_unmatched=True,
            registry=cluster.metrics,
            tracer_fn=lambda: cluster.tracer,
        )
        self.host = self.stub.host

    # -- public API (simulation-process generators) ----------------------------

    def invoke(self, object_id: ObjectId, method: str, *args: Any):
        """Invoke a method; returns its value (use ``yield from`` in a
        simulation process)."""
        readonly = self.cluster.is_readonly(object_id, method)
        self._counter += 1
        request_id = f"{self.name}#{self._counter}"
        record = None
        if self.recorder is not None:
            record = self.recorder.begin(self.name, str(object_id), method, args, self.sim.now)

        def is_reply(payload: Any) -> bool:
            return isinstance(payload, ClientReply) and payload.request_id == request_id

        # Flips once a backup rejects this read: retries then go straight
        # to the primary, which can always serve.  Backups park for up to
        # their read deadline before rejecting, so a re-draw among the
        # replicas could flap between lease-less backups for the whole
        # attempt budget (e.g. a primary partitioned from its backups).
        primary_only = False
        with self.stub.open(method, request_id) as call:
            for attempt in range(self._max_attempts):
                if primary_only:
                    target = self.shard_map.shard_for(object_id).primary
                else:
                    target = self._route(object_id, readonly)
                request = ClientRequest(
                    request_id=request_id,
                    client=self.name,
                    object_id=object_id,
                    method=method,
                    args=args,
                    epoch=self.epoch,
                    min_applied=self._fence_for(object_id) if readonly else 0,
                    tenant=self.tenant,
                )
                reply = yield from call.attempt(target, request, is_reply)
                if attempt + 1 == self._max_attempts:
                    break
                if type(reply) is RetryAfter:
                    # Overload is not staleness: the config is fine and a
                    # refresh would only add traffic to a hot cluster.
                    delay = reply.retry_after_ms
                elif reply is None or (not reply.ok and reply.error in self.RETRYABLE_ERRORS):
                    # A backup that rejected a read is skipped for a short
                    # while so other requests land where they can be served.
                    if reply is not None and reply.server and reply.error in (
                        "no lease",
                        "replica behind",
                    ):
                        self._note_penalty(reply.server)
                        primary_only = True
                    yield from self.refresh_config()
                    delay = self._rng.uniform(0.1, 0.5) * (1 + attempt)
                else:
                    break
                yield self.sim.timeout(delay)
        if type(reply) is RetryAfter:
            # Attempt budget exhausted while the cluster was shedding:
            # surface it like a timeout (retryable by the caller), not an
            # application error.
            if record is not None:
                self.recorder.fail(record, self.sim.now, "overloaded")
            raise RequestTimeout(
                f"{method} on {object_id.short} shed by {reply.server or 'server'} "
                f"after {self._max_attempts} attempts: {reply.reason}"
            )
        if reply is not None and reply.ok:
            if reply.fence is not None:
                shard_id, primary, watermark = reply.fence
                key = (shard_id, primary)
                if watermark > self._fences.get(key, 0):
                    self._fences[key] = watermark
            if record is not None:
                self.recorder.finish(record, self.sim.now, reply.value)
            return reply.value
        if reply is not None and reply.error not in self.RETRYABLE_ERRORS:
            if record is not None:
                self.recorder.fail(record, self.sim.now, reply.error)
            raise InvocationFailed(
                f"{method} on {object_id.short} failed: {reply.error}",
                error=reply.error,
            )
        last_error = reply.error if reply is not None else "timeout"
        if record is not None:
            self.recorder.fail(record, self.sim.now, last_error)
        raise RequestTimeout(
            f"{method} on {object_id.short} gave up after "
            f"{self._max_attempts} attempts: {last_error}"
        )

    def refresh_config(self):
        """Fetch the latest epoch + shard map from the coordination service."""
        for coordinator in self.cluster.coordinator_names():
            self._counter += 1
            query_id = f"{self.name}#{self._counter}"
            query = ConfigQuery(query_id)
            reply = yield from self.stub.call(
                coordinator,
                query,
                lambda p: isinstance(p, ConfigReply) and p.query_id == query_id,
            )
            if reply is not None:
                if reply.epoch >= self.epoch:
                    self.epoch = reply.epoch
                    self.shard_map = reply.config
                return
        # All coordinators timed out; keep the stale config and let the
        # caller's retry loop back off.

    # -- internals ---------------------------------------------------------

    def _fence_for(self, object_id: ObjectId) -> int:
        """The monotonic-read floor for the shard currently owning
        ``object_id`` (0 when this client never observed a settled write
        under the shard's current primaryship)."""
        replica_set = self.shard_map.shard_for(object_id)
        return self._fences.get((replica_set.shard_id, replica_set.primary), 0)

    def _note_penalty(self, server: str) -> None:
        """Record a routing penalty, keeping the map bounded.

        Expired entries are dropped first; if the map is still over
        :data:`PENALTY_CAP`, the soonest-expiring entries go (they were
        about to leave anyway, and dropping a penalty is always safe —
        the worst case is one extra rejected read at that backup).
        """
        self._prune_penalties(self.sim.now)
        self._penalty[server] = self.sim.now + self.REPLICA_PENALTY_MS
        while len(self._penalty) > self.PENALTY_CAP:
            del self._penalty[min(self._penalty, key=self._penalty.get)]

    def _prune_penalties(self, now: float) -> None:
        if not self._penalty:
            return
        expired = [s for s, until in self._penalty.items() if until <= now]
        for server in expired:
            del self._penalty[server]

    def _route(self, object_id: ObjectId, readonly: bool) -> str:
        replica_set = self.shard_map.shard_for(object_id)
        if readonly and self.replica_reads and replica_set.backups:
            now = self.sim.now
            # Pruning first keeps the map from pinning memory; the
            # candidate list is identical either way (expired entries
            # already passed the <= now filter).
            self._prune_penalties(now)
            candidates = [
                replica
                for replica in replica_set.read_replicas()
                if self._penalty.get(replica, 0.0) <= now
            ]
            if candidates:
                return self._rng.choice(candidates)
        return replica_set.primary
