"""Distributed serializable transactions over LambdaStore (§7 future work).

The embedded transactional layer (:mod:`repro.core.transactions`) covers
one runtime; this module spans shards with the classic recipe the paper
alludes to ("proven transaction processing protocols from existing
database management systems"):

- **locking**: each participant primary locks touched objects through the
  node's ordinary lock table — the same locks plain invocations use, so
  transactional and plain writers serialise correctly;
- **deadlock policy**: *no-wait*.  A transactional invocation that finds
  an object locked is refused; the whole transaction aborts and retries.
  No waiting means no distributed deadlock detection is needed;
- **atomic commit**: two-phase commit.  The client coordinator collects a
  yes-vote from every participant, then distributes the decision;
  participants apply their buffered write set atomically, replicate it to
  their backups, and release locks.

Scope (documented limitations, mirroring the paper's future-work status):
nested calls inside a transactional invocation must stay on the same
node (they join the transaction); objects cannot be created inside a
transaction; the coordinator is a client, so a client crash between
prepare and decision would block participants until an operator aborts —
coordinator-failure recovery is out of scope here as in most teaching
implementations of 2PC.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.messages import CONTROL_RPC_DEADLINE_MS
from repro.core import keyspace
from repro.core.context import InvocationContext
from repro.core.fields import decode_value
from repro.core.ids import ObjectId
from repro.core.runtime import MAX_CALL_DEPTH
from repro.core.transactions import TransactionAborted
from repro.core.writeset import WriteSet
from repro.errors import InvocationError, Trap, UnknownObjectError
from repro.rpc import RpcStub
from repro.wasm.fuel import FuelMeter
from repro.wasm.instance import Instance


# -- messages ------------------------------------------------------------


@dataclass
class TxnInvoke:
    """Coordinator -> participant: execute inside the transaction."""

    txn_id: str
    request_id: str
    client: str
    object_id: ObjectId
    method: str
    args: tuple

    def size(self) -> int:
        return 96


@dataclass
class TxnInvokeReply:
    """Participant response (value, error, or lock conflict)."""

    request_id: str
    ok: bool
    value: Any = None
    error: str = ""
    #: the object was locked by someone else: retry the whole transaction
    conflict: bool = False

    def size(self) -> int:
        return 64


@dataclass
class TxnPrepare:
    """2PC phase 1: request a commit vote."""

    txn_id: str
    client: str

    def size(self) -> int:
        return 48


@dataclass
class TxnVote:
    """2PC phase 1 response."""

    txn_id: str
    node: str
    yes: bool

    def size(self) -> int:
        return 32


@dataclass
class TxnDecision:
    """2PC phase 2: the commit/abort decision."""

    txn_id: str
    client: str
    commit: bool

    def size(self) -> int:
        return 33


@dataclass
class TxnDone:
    """Participant -> coordinator: decision applied."""

    txn_id: str
    node: str

    def size(self) -> int:
        return 32


# -- participant (one per storage node) ----------------------------------------


@dataclass
class _TxnState:
    writeset: WriteSet
    locked: set = field(default_factory=set)
    poisoned: bool = False
    prepared: bool = False


class TransactionParticipant:
    """Node-side transaction logic, on the node's endpoint."""

    def __init__(self, node: Any) -> None:
        self.node = node
        self._active: dict[str, _TxnState] = {}
        node.endpoint.on(TxnInvoke, self._handle_invoke, spawn="txn")
        node.endpoint.on(TxnPrepare, self._handle_prepare)
        node.endpoint.on(TxnDecision, self._handle_decision, spawn="txn2pc")

    # -- execution ---------------------------------------------------------

    def _state_for(self, txn_id: str) -> _TxnState:
        state = self._active.get(txn_id)
        if state is None:
            state = _TxnState(writeset=WriteSet(self.node.runtime.storage.get))
            self._active[txn_id] = state
        return state

    def _reply(self, message: TxnInvoke, reply: TxnInvokeReply) -> None:
        self.node.endpoint.send(message.client, reply)

    def _handle_invoke(self, message: TxnInvoke):
        node = self.node
        state = self._state_for(message.txn_id)
        if state.poisoned:
            self._reply(message, TxnInvokeReply(message.request_id, False, error="poisoned"))
            return

        object_key = str(message.object_id)
        if object_key not in state.locked:
            if not node.locks.try_acquire(object_key):
                # No-wait: refuse, the coordinator aborts and retries.
                self._reply(
                    message,
                    TxnInvokeReply(message.request_id, False, error="locked", conflict=True),
                )
                return
            state.locked.add(object_key)

        try:
            value, fuel_used = self._execute(state, message.object_id, message.method, message.args)
        except (InvocationError, UnknownObjectError) as error:
            state.poisoned = True
            self._reply(message, TxnInvokeReply(message.request_id, False, error=str(error)))
            return
        yield from node.charge_cpu(fuel_used)
        self._reply(message, TxnInvokeReply(message.request_id, True, value=value))

    def _execute(self, state: _TxnState, object_id: ObjectId, method: str, args: tuple):
        """Run one invocation against the transaction's write set."""
        runtime = self.node.runtime
        meta = state.writeset.get(keyspace.meta_key(object_id))
        if meta is None:
            raise UnknownObjectError(f"object {object_id.short} does not exist")
        object_type = runtime.type_named(decode_value(meta))
        method_def = object_type.method_def(method)

        fuel = FuelMeter()
        participant = self

        class _Adapter:
            """Runtime view for in-transaction contexts on this node."""

            storage = runtime.storage
            clock = runtime.clock
            guest_rng = runtime.guest_rng
            costs = runtime.costs

            def nested_invoke(self, parent_ctx, nested_oid, nested_method, nested_args):
                if parent_ctx.depth + 1 > MAX_CALL_DEPTH:
                    raise InvocationError("transactional call depth exceeded")
                owner = participant.node.owner_node_for(ObjectId(nested_oid))
                if owner is not None and owner is not participant.node:
                    raise InvocationError(
                        "distributed transactions do not span nodes within one "
                        "invocation; invoke the remote object from the client"
                    )
                object_key = str(nested_oid)
                if object_key not in state.locked:
                    if not participant.node.locks.try_acquire(object_key):
                        raise InvocationError("nested object locked (no-wait)")
                    state.locked.add(object_key)
                value, _fuel = participant._execute(
                    state, ObjectId(nested_oid), nested_method, tuple(nested_args)
                )
                return value

        ctx = InvocationContext(
            runtime=_Adapter(),
            object_id=object_id,
            object_type=object_type,
            writeset=state.writeset,
            fuel=fuel,
            costs=runtime.costs,
            readonly=method_def.readonly,
        )
        instance = Instance(object_type.module, ctx, fuel=fuel)
        ctx.bind_memory(instance.memory)
        try:
            value = instance.call(method, *args)
        except Trap as trap:
            raise InvocationError(str(trap)) from trap
        return value, fuel.used

    # -- two-phase commit ----------------------------------------------------

    def _handle_prepare(self, message: TxnPrepare) -> None:
        state = self._active.get(message.txn_id)
        yes = state is not None and not state.poisoned
        if state is not None:
            state.prepared = yes
        vote = TxnVote(message.txn_id, self.node.name, yes)
        self.node.endpoint.send(message.client, vote)

    def _handle_decision(self, message: TxnDecision):
        node = self.node
        state = self._active.pop(message.txn_id, None)
        if state is not None:
            if message.commit and state.writeset.has_writes:
                yield from node.commit_local(state.writeset.to_batch())
            for object_key in state.locked:
                node.locks.release(object_key)
        done = TxnDone(message.txn_id, node.name)
        node.endpoint.send(message.client, done)


# -- coordinator (client side) ----------------------------------------------


class DistributedTransaction:
    """One open distributed transaction driven from a client endpoint."""

    def __init__(self, coordinator: "TransactionCoordinator", txn_id: str) -> None:
        self._coordinator = coordinator
        self.txn_id = txn_id
        self.participants: set[str] = set()
        self.state = "active"

    def invoke(self, object_id: ObjectId, method: str, *args: Any):
        """Simulation process: invoke inside the transaction."""
        if self.state != "active":
            raise TransactionAborted(f"transaction {self.txn_id} is {self.state}")
        return (yield from self._coordinator._invoke(self, ObjectId(object_id), method, args))

    def commit(self):
        """Simulation process: two-phase commit; raises on abort."""
        if self.state != "active":
            raise TransactionAborted(f"transaction {self.txn_id} is {self.state}")
        return (yield from self._coordinator._finish(self, want_commit=True))

    def abort(self):
        """Simulation process: abort and release all participants."""
        if self.state == "active":
            yield from self._coordinator._finish(self, want_commit=False)


class TransactionCoordinator:
    """Client-side transaction endpoint (an :class:`RpcStub` mailbox).

    ``timeout_ms`` defaults to :data:`CONTROL_RPC_DEADLINE_MS` (one
    deadline for every control-plane exchange); pass a value to override
    for a single coordinator.
    """

    def __init__(
        self, cluster: Any, name: str = "txn-client", timeout_ms: "float | None" = None
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.net = cluster.net
        self.name = name
        self._ids = itertools.count(1)
        self.stub = RpcStub(
            cluster.sim,
            cluster.net,
            name,
            default_deadline_ms=(
                CONTROL_RPC_DEADLINE_MS if timeout_ms is None else timeout_ms
            ),
            registry=cluster.metrics,
            tracer_fn=lambda: cluster.tracer,
        )
        self.host = self.stub.host
        self.stats = {"begun": 0, "committed": 0, "aborted": 0, "conflicts": 0}

    # -- transaction API -------------------------------------------------------

    def begin(self) -> DistributedTransaction:
        self.stats["begun"] += 1
        return DistributedTransaction(self, f"{self.name}-txn-{next(self._ids)}")

    def run(self, body, max_attempts: int = 12):
        """Simulation process: run ``body(txn)`` (a generator) with retry.

        ``body`` receives the transaction and must ``yield from`` its
        invocations.  On conflict aborts the transaction restarts with
        backoff; other exceptions abort and propagate.
        """
        rng = self.sim.rng(f"{self.name}.retry")
        for attempt in range(max_attempts):
            txn = self.begin()
            try:
                result = yield from body(txn)
                if txn.state == "active":
                    yield from txn.commit()
                return result
            except TransactionAborted:
                if txn.state == "active":
                    yield from txn.abort()
                yield self.sim.timeout(rng.uniform(0.2, 1.0) * (attempt + 1))
                continue
            except Exception:
                if txn.state == "active":
                    yield from txn.abort()
                raise
        raise TransactionAborted(f"gave up after {max_attempts} attempts")

    # -- internals ---------------------------------------------------------

    def _primary_for(self, object_id: ObjectId) -> str:
        _epoch, shard_map = self.cluster.current_config()
        return shard_map.shard_for(object_id).primary

    def _invoke(self, txn: DistributedTransaction, object_id: ObjectId, method: str, args: tuple):
        request_id = f"{txn.txn_id}#{next(self._ids)}"
        primary = self._primary_for(object_id)
        message = TxnInvoke(txn.txn_id, request_id, self.name, object_id, method, args)
        txn.participants.add(primary)
        reply = yield from self.stub.request(
            primary,
            message,
            lambda p: isinstance(p, TxnInvokeReply) and p.request_id == request_id,
            trace_id=request_id,
        )
        if reply is None or not reply.ok:
            conflict = reply is not None and reply.conflict
            if conflict:
                self.stats["conflicts"] += 1
            yield from self._finish(txn, want_commit=False)
            if conflict or reply is None:
                raise TransactionAborted(
                    f"{txn.txn_id}: conflict on {object_id.short}"
                    if conflict
                    else f"{txn.txn_id}: participant timeout"
                )
            raise InvocationError(reply.error)
        return reply.value

    def _finish(self, txn: DistributedTransaction, want_commit: bool):
        participants = sorted(txn.participants)
        decision = want_commit
        if want_commit and participants:
            for participant in participants:
                prepare = TxnPrepare(txn.txn_id, self.name)
                self.stub.send(participant, prepare)
            for participant in participants:
                vote = yield from self.stub.await_message(
                    lambda p, n=participant: isinstance(p, TxnVote)
                    and p.txn_id == txn.txn_id
                    and p.node == n
                )
                if vote is None or not vote.yes:
                    decision = False
        for participant in participants:
            message = TxnDecision(txn.txn_id, self.name, decision)
            self.stub.send(participant, message)
        for participant in participants:
            yield from self.stub.await_message(
                lambda p, n=participant: isinstance(p, TxnDone)
                and p.txn_id == txn.txn_id
                and p.node == n
            )
        txn.state = "committed" if decision else "aborted"
        self.stats["committed" if decision else "aborted"] += 1
        if want_commit and not decision:
            raise TransactionAborted(f"{txn.txn_id}: a participant voted no")
        return decision


def enable_transactions(cluster: Any) -> None:
    """Attach a transaction participant to every storage node."""
    for node in cluster.nodes.values():
        if not node.endpoint.handles(TxnInvoke):
            TransactionParticipant(node)
