"""The cluster-wide coordination service (paper §4.2.1).

A small Paxos-replicated state machine tracks the configuration: the
epoch, the shard map (replica sets + migration overrides), and storage
node liveness.  "If a node fails, the coordinator will reconfigure the
affected shards and notify all participants."  The coordinator is only
involved during reconfigurations, never on the request path.

Each :class:`CoordinatorNode` is acceptor+learner for the replicated
command log; the current leader (first coordinator believed alive, by
configured order) proposes commands, applies them in log order, and
broadcasts :class:`NewConfig` to every storage node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cluster.messages import (
    ConfigQuery,
    ConfigReply,
    CoordCommand,
    CoordReply,
    Heartbeat,
    NewConfig,
)
from repro.cluster.paxos import PaxosNode
from repro.cluster.shard import ShardMap
from repro.obs.registry import StatsView
from repro.rpc import RpcEndpoint
from repro.sim.core import Simulation
from repro.sim.network import Network

#: storage nodes heartbeat every coordinator this often; the leader also
#: checks liveness once per interval
HEARTBEAT_INTERVAL_MS = 10.0
#: silence after which the leader declares a storage node dead and
#: reconfigures its shards around it
HEARTBEAT_TIMEOUT_MS = 60.0


@dataclass
class CoordinatorState:
    """The replicated state machine's state (one copy per coordinator)."""

    epoch: int = 0
    shard_map: ShardMap = field(default_factory=ShardMap)
    dead_nodes: set = field(default_factory=set)
    applied_commands: set = field(default_factory=set)

    def apply(self, command: CoordCommand) -> Any:
        """Apply one command deterministically; returns its result."""
        if command.command_id in self.applied_commands:
            return {"epoch": self.epoch, "duplicate": True}
        self.applied_commands.add(command.command_id)
        payload = command.payload

        if command.kind == "set_config":
            self.shard_map = payload["shard_map"].copy()
            self.epoch += 1
        elif command.kind == "report_failure":
            node = payload["node"]
            if node not in self.dead_nodes:
                self.dead_nodes.add(node)
                self._remove_node(node)
                self.epoch += 1
        elif command.kind == "move_object":
            self.shard_map.move_override(payload["object_id"], payload["to_shard"])
            self.epoch += 1
        elif command.kind == "add_backup":
            replica_set = self.shard_map.replica_set(payload["shard_id"])
            node = payload["node"]
            if node not in replica_set.members:
                replica_set.backups.append(node)
                self.dead_nodes.discard(node)
                self.epoch += 1
        else:
            return {"error": f"unknown command kind {command.kind!r}"}
        return {"epoch": self.epoch}

    def _remove_node(self, node: str) -> None:
        """Drop a dead node from every replica set, promoting backups."""
        for replica_set in self.shard_map.replica_sets:
            if node == replica_set.primary:
                if replica_set.backups:
                    replica_set.primary = replica_set.backups.pop(0)
                # A replica set with no survivors keeps its dead primary
                # on record; requests to it fail until an operator adds
                # capacity (add_backup).
            elif node in replica_set.backups:
                replica_set.backups.remove(node)


class CoordinatorStats(StatsView):
    """Coordination-service counters (off the request path, so these
    series mostly stay flat — spikes mark reconfiguration storms)."""

    PREFIX = "coordinator"
    COUNTERS = {
        "commands_applied": 0,
        "reconfigurations": 0,
        "failures_reported": 0,
        "config_queries": 0,
        "config_broadcasts": 0,
        "heartbeats_seen": 0,
    }


class CoordinatorNode:
    """One replica of the coordination service."""

    def __init__(
        self,
        sim: Simulation,
        net: Network,
        cluster: Any,
        name: str,
        peers: list[str],
        storage_nodes: list[str],
    ) -> None:
        self.sim = sim
        self.net = net
        self.cluster = cluster
        self.name = name
        self.peers = list(peers)
        registry = cluster.metrics
        self.endpoint = RpcEndpoint(
            sim,
            net,
            name,
            registry=registry,
            gate=lambda: self.crashed,
        )
        self.host = self.endpoint.host
        self.state = CoordinatorState()
        self.paxos = PaxosNode(sim, net, name, peers, on_decide=self._on_decide)
        self._storage_nodes = list(storage_nodes)
        self._last_heartbeat: dict[str, float] = {}
        #: command_id -> (reply_to, query id) awaiting application
        self._pending_replies: dict[str, str] = {}
        #: commands this node is currently proposing
        self._proposing: set[str] = set()
        self._command_counter = 0
        self.stats = CoordinatorStats(registry, {"node": name})
        self.crashed = False
        # Typed dispatch: the Paxos sub-protocol consumes its own message
        # types through the default hook; coordination RPCs get handlers.
        self.endpoint.on(CoordCommand, self._on_command)
        self.endpoint.on_rpc(
            ConfigQuery,
            self._on_config_query,
            # query ids are "<sender>#<counter>"
            reply_to=lambda message: message.query_id.rsplit("#", 1)[0],
        )
        self.endpoint.on(Heartbeat, self._on_heartbeat)
        self.endpoint.on_default(self.paxos.handle)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.endpoint.start()
        if self.cluster.config.auto_failure_detection:
            self.sim.process(self._monitor(), name=f"{self.name}.monitor")

    def crash(self) -> None:
        """Stop participating (messages to/from this node are dropped)."""
        self.crashed = True
        self.net.crash(self.name)

    @property
    def is_leader(self) -> bool:
        return self.leader() == self.name

    def leader(self) -> str:
        """First configured coordinator this node believes is alive."""
        for peer in self.peers:
            if peer == self.name and self.crashed:
                continue
            if not self.net.host(peer).crashed:
                return peer
        return self.peers[0]

    # -- serving ------------------------------------------------------------

    def _on_config_query(self, message: ConfigQuery) -> ConfigReply:
        self.stats.handle("config_queries").inc()
        return ConfigReply(message.query_id, self.state.epoch, self.state.shard_map.copy())

    def _on_heartbeat(self, message: Heartbeat) -> None:
        self.stats.handle("heartbeats_seen").inc()
        self._last_heartbeat[message.sender] = self.sim.now

    def _on_command(self, command: CoordCommand) -> None:
        sender = command.command_id.rsplit("#", 1)[0]
        if not self.is_leader:
            reply = CoordReply(command.command_id, False, leader_hint=self.leader())
            self.endpoint.send(sender, reply)
            return
        if command.command_id in self.state.applied_commands:
            reply = CoordReply(command.command_id, True, result={"epoch": self.state.epoch})
            self.endpoint.send(sender, reply)
            return
        self._pending_replies[command.command_id] = sender
        self.submit(command)

    def submit(self, command: CoordCommand) -> None:
        """Drive ``command`` through the replicated log (leader only)."""
        if command.command_id in self._proposing:
            return
        self._proposing.add(command.command_id)

        def drive():
            while command.command_id not in self.state.applied_commands:
                slot = self.paxos.first_undecided_slot()
                yield from self.paxos.propose(slot, command)
            self._proposing.discard(command.command_id)

        self.sim.process(drive(), name=f"{self.name}.propose")

    # -- state machine ----------------------------------------------------

    def _on_decide(self, _slot: int, command: CoordCommand) -> None:
        old_epoch = self.state.epoch
        result = self.state.apply(command)
        self.stats.handle("commands_applied").inc()
        if self.state.epoch != old_epoch:
            self.stats.handle("reconfigurations").inc()
        sender = self._pending_replies.pop(command.command_id, None)
        if sender is not None:
            reply = CoordReply(command.command_id, True, result=result)
            self.endpoint.send(sender, reply)
        if self.state.epoch != old_epoch and self.is_leader:
            self._broadcast_config()

    def _broadcast_config(self) -> None:
        self.stats.handle("config_broadcasts").inc()
        message = NewConfig(self.state.epoch, self.state.shard_map.copy())
        targets = list(self._storage_nodes)
        # Nodes that joined a replica set after bootstrap (add_backup)
        # must hear about reconfigurations too: adopting the config is
        # what drains/retires their replication pipelines on promote or
        # demote, and what unblocks epoch-gated requests.
        for node in self.state.shard_map.nodes():
            if node not in targets:
                targets.append(node)
        for node in targets:
            self.endpoint.send(node, message)

    # -- failure detection -------------------------------------------------

    def _monitor(self):
        # Give nodes a grace period to send their first heartbeat.
        yield self.sim.timeout(HEARTBEAT_TIMEOUT_MS)
        while True:
            yield self.sim.timeout(HEARTBEAT_INTERVAL_MS)
            if self.crashed or not self.is_leader:
                continue
            for node in self._storage_nodes:
                if node in self.state.dead_nodes:
                    continue
                last_seen = self._last_heartbeat.get(node)
                if last_seen is None or self.sim.now - last_seen > HEARTBEAT_TIMEOUT_MS:
                    if self.state.shard_map.shard_of_node(node) is None:
                        continue
                    self._command_counter += 1
                    self.stats.handle("failures_reported").inc()
                    command = CoordCommand(
                        command_id=f"{self.name}#fail-{node}-{self._command_counter}",
                        kind="report_failure",
                        payload={"node": node},
                    )
                    self.submit(command)


class NodeMembership:
    """A storage node's side of membership: it heartbeats every
    coordinator, adopts each configuration they send, and asks for the
    latest one when a client shows it is behind.  Uses only the node's
    public surface."""

    def __init__(self, node: Any) -> None:
        self.node = node
        self._hb_generation = 0
        self._config_query_counter = 0
        self._last_config_query = float("-inf")
        node.endpoint.on(NewConfig, self._on_config_message)
        node.endpoint.on(ConfigReply, self._on_config_message)

    def start_heartbeats(self) -> None:
        """Start a heartbeat loop; it ends when the next one starts."""
        node = self.node
        self._hb_generation += 1
        node.sim.process(
            self._heartbeat_loop(self._hb_generation), name=f"{node.name}.heartbeat"
        )

    def _heartbeat_loop(self, generation: int):
        node = self.node
        sim = node.sim
        rng = sim.rng(f"{node.name}.hb")
        yield sim.timeout(rng.uniform(0, HEARTBEAT_INTERVAL_MS))
        while True:
            if node.crashed or generation != self._hb_generation:
                return
            for coordinator in node.cluster.coordinator_names():
                message = Heartbeat(node.name, sim.now)
                node.endpoint.send(coordinator, message)
            yield sim.timeout(HEARTBEAT_INTERVAL_MS)

    def _on_config_message(self, message) -> None:
        self.node.install_config(message.epoch, message.config)

    def request_config_refresh(self) -> None:
        """Ask a coordinator for the latest configuration (rate-limited;
        rotates through coordinators so one dead coordinator cannot wedge
        the catch-up path)."""
        node = self.node
        coordinators = node.cluster.coordinator_names()
        if not coordinators:
            return
        if node.sim.now - self._last_config_query < HEARTBEAT_INTERVAL_MS:
            return
        self._last_config_query = node.sim.now
        node.stats.handle("config_refreshes").inc()
        self._config_query_counter += 1
        target = coordinators[self._config_query_counter % len(coordinators)]
        query = ConfigQuery(f"{node.name}#{self._config_query_counter}")
        node.endpoint.send(target, query)
