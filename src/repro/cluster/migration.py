"""Live microshard migration (paper §4.2: objects are microshards that
"can be migrated by themselves without causing disruption to computation
involving other objects").

Protocol (freeze-copy-flip):

1. **Freeze** — the source primary takes the object's lock, marks it
   migrating (mutations get "migration in progress" and retry), and dumps
   the microshard's key range.
2. **Copy** — the orchestrator installs the state at the destination
   primary, which replicates it to its backups.
3. **Flip** — a ``move_object`` command goes through the Paxos-replicated
   coordinator, bumping the epoch; the new configuration is broadcast.
4. **Unfreeze** — the source drops its copy; stale-routed clients get
   wrong-epoch rejections and refresh.

Only the migrated object blocks during the window; every other object on
both nodes keeps serving.  The :class:`Migrator` drives the protocol and
each node's :class:`NodeMigration` answers it; the migrator's exchanges
ride on an :class:`RpcStub` with :data:`CONTROL_RPC_DEADLINE_MS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cluster.messages import CONTROL_RPC_DEADLINE_MS, CoordCommand, CoordReply
from repro.core.ids import ObjectId
from repro.errors import ClusterError
from repro.kvstore.batch import WriteBatch, encode_round
from repro.rpc import RetryPolicy, RpcStub


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
class MigrateObject:
    """Migration orchestrator -> destination primary: the object's state."""

    object_id: ObjectId
    entries: list[tuple[bytes, bytes]]
    epoch: int
    sender: str = ""

    def size(self) -> int:
        return 32 + sum(len(k) + len(v) for k, v in self.entries)


@dataclass
class MigrateAck:
    """Destination primary -> orchestrator: state installed."""

    object_id: ObjectId
    ok: bool

    def size(self) -> int:
        return 24


class Migrator:
    """Drives object migrations; one per cluster is plenty."""

    def __init__(self, cluster: Any, name: str = "migrator") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.net = cluster.net
        self.name = name
        self._counter = 0
        self.stub = RpcStub(
            cluster.sim,
            cluster.net,
            name,
            default_deadline_ms=CONTROL_RPC_DEADLINE_MS,
            registry=cluster.metrics,
            tracer_fn=lambda: cluster.tracer,
        )
        self.host = self.stub.host

    def migrate(self, object_id: ObjectId, to_shard: int):
        """Simulation process: move one object to another replica set."""
        epoch, shard_map = self.cluster.current_config()
        source = shard_map.shard_for(object_id)
        destination = shard_map.replica_set(to_shard)
        if source.shard_id == to_shard:
            return  # already there

        # 1. freeze + dump at the source primary
        self._counter += 1
        freeze_id = f"{self.name}#{self._counter}"
        freeze = FreezeObject(object_id, freeze_id, self.name)
        reply = yield from self.stub.call(
            source.primary,
            freeze,
            lambda p: isinstance(p, FreezeReply) and p.freeze_id == freeze_id,
        )
        if reply is None:
            raise ClusterError(f"freeze of {object_id.short} timed out")
        entries = reply.entries
        if not entries:
            raise ClusterError(f"object {object_id.short} has no data at source")

        try:
            # 2. install at the destination primary
            move = MigrateObject(object_id, entries, epoch, sender=self.name)
            ack = yield from self.stub.call(
                destination.primary,
                move,
                lambda p: isinstance(p, MigrateAck) and p.object_id == object_id,
            )
            if ack is None or not ack.ok:
                raise ClusterError(f"migration copy of {object_id.short} failed")

            # 3. flip ownership through the coordination service
            self._counter += 1
            command = CoordCommand(
                command_id=f"{self.name}#{self._counter}",
                kind="move_object",
                payload={"object_id": object_id, "to_shard": to_shard},
            )
            yield from self._submit_command(command)
        except ClusterError:
            # Abort: unfreeze at the source *without* dropping its state so
            # the object keeps serving (fire a few times — the unfreeze is
            # idempotent and the network may be lossy mid-chaos).
            rollback = UnfreezeObject(object_id, drop=False)
            for _ in range(3):
                self.stub.send(source.primary, rollback)
                yield self.sim.timeout(1.0)
            raise

        # 4. release the source
        unfreeze = UnfreezeObject(object_id, drop=True)
        self.stub.send(source.primary, unfreeze)

    def _submit_command(self, command: CoordCommand):
        """Send a coordinator command, following leader hints."""
        target = [self.cluster.coordinator_names()[0]]

        def retarget(_attempt: int, reply: Any) -> None:
            if reply is not None and reply.leader_hint:
                target[0] = reply.leader_hint

        reply = yield from self.stub.call(
            lambda _attempt: target[0],
            command,
            lambda p: isinstance(p, CoordReply) and p.command_id == command.command_id,
            retry=RetryPolicy(max_attempts=10),
            should_retry=lambda r: not r.ok,
            on_retry=retarget,
            method=f"CoordCommand.{command.kind}",
        )
        if reply is None or not reply.ok:
            raise ClusterError(f"coordinator command {command.kind} did not commit")
        return reply


class NodeMigration:
    """A storage node's side of freeze-copy-flip: freeze, dump and drop
    at the source primary, install at the destination primary.  Uses
    only the node's public surface."""

    def __init__(self, node: Any) -> None:
        self.node = node
        #: ids (``str(ObjectId)``) of objects frozen for migration
        self.frozen: set[str] = set()
        endpoint = node.endpoint
        endpoint.on(FreezeObject, self._freeze, spawn="freeze")
        endpoint.on(UnfreezeObject, self._unfreeze)
        endpoint.on(MigrateObject, self._install)

    def is_frozen(self, object_id: ObjectId) -> bool:
        return str(object_id) in self.frozen

    def _freeze(self, message: FreezeObject):
        """Freeze an object and dump its microshard (migration step 1)."""
        node = self.node
        object_key = str(message.object_id)
        yield node.locks.acquire(object_key)
        try:
            self.frozen.add(object_key)
            reply = FreezeReply(message.freeze_id, node.dump_object_state(message.object_id))
            node.endpoint.send(message.sender, reply)
        finally:
            node.locks.release(object_key)

    def _unfreeze(self, message: UnfreezeObject) -> None:
        self.frozen.discard(str(message.object_id))
        if message.drop:
            node = self.node
            node.sim.process(self._drop(message.object_id), name=f"{node.name}.drop")

    def _drop(self, object_id: ObjectId):
        """Delete a migrated-away object's local data and replicate the
        deletion to this shard's backups."""
        batch = WriteBatch()
        for key, _value in self.node.dump_object_state(object_id):
            batch.delete(key)
        if batch:
            yield from self.node.commit_local(batch)

    def _install(self, message: MigrateObject) -> None:
        """Install a migrated object's state (migration step 2)."""
        node = self.node
        batch = WriteBatch()
        for key, value in message.entries:
            batch.put(key, value)
        node.runtime.storage.apply(batch)
        # Propagate to this shard's backups outside the request path.
        own_shard = node.led_shard()
        if own_shard is not None and batch:
            node.sim.process(
                node.replicate_round(own_shard.shard_id, encode_round([batch])[0]),
                name=f"{node.name}.migrate-repl",
            )
        ack = MigrateAck(message.object_id, True)
        node.endpoint.send(message.sender, ack)
