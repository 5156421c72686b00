"""Cluster assembly: wiring nodes, coordinators, network, and bootstrap."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import CoordinatorNode
from repro.cluster.shard import ReplicaSet, ShardMap
from repro.cluster.execution import ExecutionCapture
from repro.cluster.store_node import StoreNode
from repro.core.ids import ObjectId
from repro.core.object_type import ObjectType
from repro.errors import ClusterError
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.sim.core import Simulation
from repro.sim.network import (
    BANDWIDTH_MBPS,
    NET_CAP_MS,
    NET_SIGMA,
    LogNormalLatency,
    Network,
)
from repro.wasm.host_api import OpCosts


@dataclass
class ClusterConfig:
    """Shape and cost model of a LambdaStore deployment.

    The defaults mirror the paper's evaluation: three storage machines in
    one replica set (no sharding), 20 physical cores each, all in one
    low-latency cluster (§5).  Only what some experiment or deployment
    varies is a field; every fixed timing and cap is a named constant in
    the module that owns it (heartbeats in ``coordinator``, acks in
    ``replication``, leases and caps in ``store_node``, the network's
    shape in ``repro.sim.network``).
    """

    num_storage_nodes: int = 3
    #: number of replica sets; storage nodes are split evenly among them
    num_shards: int = 1
    num_coordinators: int = 3
    cores_per_node: int = 20
    #: simulated CPU milliseconds per unit of metered fuel
    ms_per_fuel: float = 0.005
    #: median one-way network latency (log-normal, shaped by ``NET_SIGMA``
    #: and capped at ``NET_CAP_MS``)
    net_median_ms: float = 0.08
    bandwidth_mbps: float = BANDWIDTH_MBPS
    enable_cache: bool = True
    auto_failure_detection: bool = True
    #: when set, each storage node persists through the real LSM store in
    #: ``<durable_dir>/<node name>`` instead of an in-memory backend
    durable_dir: Optional[str] = None
    #: pipelined group-commit replication coalesces concurrent commit
    #: rounds into range frames with cumulative acks, releases the object
    #: lock at local commit, and parks the client reply on the pipeline's
    #: settlement watermark.  A frame is flushed once it holds this many
    #: rounds (1 ships every round alone: group commit off) or 64 KiB
    group_commit_max_rounds: int = 32
    #: backstop flush interval (simulated ms) while frames are in flight
    group_commit_flush_ms: float = 0.25
    #: lease-based replica reads: backups holding a fresh lease from
    #: their shard's primary serve read-only invocations locally (no
    #: primary round trip), releasing each reply only once the settlement
    #: watermark covers the read state.
    replica_reads: bool = True
    #: transport egress coalescing + ack piggybacking (DESIGN.md §5j):
    #: frames to the same destination within the coalesce window share
    #: one wire message (one latency draw, one delivery event), and
    #: backups defer cumulative replication acks to ride on reverse
    #: traffic or the ``ack_flush_ms`` fallback timer.  Off preserves
    #: the historical one-message-per-send behavior byte-for-byte.
    transport_coalescing: bool = False
    #: how long an egress frame may wait for companions (simulated ms;
    #: 0 packs only same-instant frames)
    coalesce_window_ms: float = 0.0
    #: backup-side deferred-ack fallback timer; must stay well below
    #: ``ACK_TIMEOUT_MS`` so deferral never looks like ack loss (the
    #: node clamps it to half the ack timeout).  1.0 ms is the
    #: empirical sweet spot on the headline mix: enough deferral to
    #: merge ~2 cumulative acks per send without stretching settlement
    ack_flush_ms: float = 1.0
    #: per-tenant admission control + load shedding at each storage node
    #: (DESIGN.md §5h); off preserves the historical admit-everything
    #: behavior byte-for-byte.  Mutating requests also shed once the
    #: per-object lock queues pass the controller's pressure threshold
    #: (reads keep flowing).
    admission_control: bool = False
    #: per-tenant admitted-request rate (requests/sec; 0 = no rate gate)
    tenant_rate_limit: float = 0.0
    #: per-node cap on admitted requests in flight (0 = unlimited)
    max_inflight_requests: int = 0
    #: test-only: names of deliberately reintroduced historical bugs, for
    #: the model checker's seeded-bug self-tests (see repro.mc).  Known
    #: names: "drain-invalidation" (PR 1's out-of-order replica
    #: cache-invalidation drain bug).  Empty in every real deployment.
    seeded_bugs: tuple = ()
    seed: int = 0


class Cluster:
    """A complete simulated LambdaStore deployment."""

    def __init__(self, sim: Simulation, config: Optional[ClusterConfig] = None) -> None:
        self.sim = sim
        self.config = config or ClusterConfig()
        if self.config.num_storage_nodes < 1:
            raise ClusterError("cluster needs at least one storage node")
        if self.config.num_shards > self.config.num_storage_nodes:
            raise ClusterError("more shards than storage nodes")
        self.net = Network(
            sim,
            latency=LogNormalLatency(
                self.config.net_median_ms,
                sigma=NET_SIGMA,
                cap_ms=NET_CAP_MS,
            ),
            bandwidth_mbps=self.config.bandwidth_mbps,
        )
        if self.config.transport_coalescing:
            self.net.enable_coalescing(self.config.coalesce_window_ms)
        self._id_rng = sim.rng("cluster.ids")
        self.costs = OpCosts()
        #: unified observability: one registry (and optionally one tracer)
        #: for the whole deployment; nodes register labelled instruments
        self.metrics = MetricsRegistry()
        self.tracer: Optional[SpanTracer] = None
        #: model-checker crash-point hook: ``probe(node_name, site)`` is
        #: called at named protocol sites (e.g. "pre-replicate") on live
        #: nodes and may fail-stop the node via :meth:`crash_node`.  None
        #: (always, outside repro.mc) keeps the sites inert.
        self.mc_crash_probe = None

        storage_names = [f"store-{i}" for i in range(self.config.num_storage_nodes)]
        coordinator_names = [f"coord-{i}" for i in range(self.config.num_coordinators)]

        self.bootstrap_shard_map = self._build_shard_map(storage_names)
        self.bootstrap_epoch = 1

        self.nodes: dict[str, StoreNode] = {}
        self._dbs = []
        for name in storage_names:
            storage = None
            if self.config.durable_dir is not None:
                import os

                from repro.core.storage import KVBackend
                from repro.kvstore import DB

                db = DB.open(
                    os.path.join(self.config.durable_dir, name),
                    registry=self.metrics,
                    labels={"node": name},
                )
                self._dbs.append(db)
                storage = KVBackend(db)
            admission = None
            if self.config.admission_control:
                from repro.qos import AdmissionController

                # pressure_fn is left unset here; the node points it at
                # its own lock table (the scheduler queue depth is the
                # backpressure signal).
                admission = AdmissionController(
                    clock=lambda: sim.now,
                    tenant_rate_per_sec=self.config.tenant_rate_limit,
                    max_inflight=self.config.max_inflight_requests,
                    registry=self.metrics,
                    labels={"node": name},
                )
            node = StoreNode(
                sim, self.net, self, name, storage=storage, admission=admission
            )
            node.install_config(self.bootstrap_epoch, self.bootstrap_shard_map.copy())
            self.nodes[name] = node
            self._register_storage_gauges(name, node.runtime.storage)

        self.coordinators: dict[str, CoordinatorNode] = {}
        for name in coordinator_names:
            coordinator = CoordinatorNode(
                sim,
                self.net,
                self,
                name,
                peers=coordinator_names,
                storage_nodes=storage_names,
            )
            coordinator.state.epoch = self.bootstrap_epoch
            coordinator.state.shard_map = self.bootstrap_shard_map.copy()
            self.coordinators[name] = coordinator

        #: object id -> type name (for client-side readonly routing)
        self._object_types: dict[str, str] = {}
        self._types: dict[str, ObjectType] = {}
        #: the capture for the execution currently in flight (if any)
        self.capture: Optional[ExecutionCapture] = None
        self._clients: list[ClusterClient] = []
        self._started = False

    def _register_storage_gauges(self, name: str, storage: Any) -> None:
        """Expose an in-memory backend's plain op counters as callback
        gauges (a ``DB``-backed node registers its own counters instead)."""
        labels = {"node": name}
        for op in ("gets", "puts", "deletes", "applies"):
            if hasattr(storage, op):
                self.metrics.gauge(
                    f"kvstore_{op}",
                    labels,
                    fn=lambda backend=storage, attr=op: getattr(backend, attr),
                )
        if hasattr(storage, "size_bytes"):
            self.metrics.gauge(
                "kvstore_size_bytes", labels, fn=storage.size_bytes
            )

    def _build_shard_map(self, storage_names: list[str]) -> ShardMap:
        groups: list[list[str]] = [[] for _ in range(self.config.num_shards)]
        for index, name in enumerate(storage_names):
            groups[index % self.config.num_shards].append(name)
        replica_sets = [
            ReplicaSet(shard_id=i, primary=group[0], backups=group[1:])
            for i, group in enumerate(groups)
            if group
        ]
        return ShardMap(replica_sets=replica_sets)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start every node's serving processes (idempotent)."""
        if self._started:
            return
        self._started = True
        for coordinator in self.coordinators.values():
            coordinator.start()
        for node in self.nodes.values():
            node.start()

    def enable_tracing(
        self, max_spans: int = 100_000, sample_rate: float = 1.0
    ) -> SpanTracer:
        """Attach one cluster-wide span tracer (idempotent).

        Every node's runtime (and durable DB, if any) shares the tracer,
        so a cross-node nested dispatch lands in the caller's trace with
        the callee's node name on the span.  ``sample_rate`` is the
        fraction of traces recorded (head-based, deterministic per
        request id; anomalous requests are escalated to always-traced
        regardless of the rate).
        """
        if self.tracer is None:
            self.tracer = SpanTracer(
                clock=lambda: self.sim.now,
                max_spans=max_spans,
                sample_rate=sample_rate,
            )
            for node in self.nodes.values():
                node.runtime.tracer = self.tracer
                db = getattr(node.runtime.storage, "db", None)
                if db is not None:
                    db.tracer = self.tracer
        return self.tracer

    # -- lookup ------------------------------------------------------------

    def node(self, name: str) -> StoreNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise ClusterError(f"unknown storage node {name!r}") from None

    def coordinator_names(self) -> list[str]:
        return list(self.coordinators)

    def leader_coordinator(self) -> CoordinatorNode:
        """The coordinator currently acting as leader."""
        any_coordinator = next(iter(self.coordinators.values()))
        return self.coordinators[any_coordinator.leader()]

    def current_config(self) -> tuple[int, ShardMap]:
        """The authoritative configuration (from the coordinator leader)."""
        leader = self.leader_coordinator()
        return leader.state.epoch, leader.state.shard_map

    # -- types and objects -------------------------------------------------

    def register_type(self, object_type: ObjectType) -> None:
        """Register a type on every storage node."""
        self._types[object_type.name] = object_type
        for node in self.nodes.values():
            node.runtime.register_type(object_type)

    def register_types(self, object_types: Iterable[ObjectType]) -> None:
        for object_type in object_types:
            self.register_type(object_type)

    def create_object(
        self,
        type_name: str,
        object_id: Optional[ObjectId] = None,
        initial: Optional[dict[str, Any]] = None,
    ) -> ObjectId:
        """Instantiate an object on its replica set (setup-time operation).

        Creation writes identical initial state to every member of the
        owning replica set directly; production systems would bootstrap
        through the primary, but dataset setup is not part of any
        measured experiment.
        """
        oid = object_id if object_id is not None else ObjectId.generate(self._id_rng)
        replica_set = self.bootstrap_shard_map.shard_for(oid)
        # Encode the initial state once and apply the same batch to every
        # replica member — dataset loads write identical bytes per member,
        # so per-member re-encoding is pure waste.
        members = iter(replica_set.members)
        first = next(members)
        first_runtime = self.nodes[first].runtime
        batch = first_runtime.build_create_batch(type_name, oid, initial)
        first_runtime.create_object_from_batch(oid, batch)
        for member in members:
            self.nodes[member].runtime.create_object_from_batch(oid, batch)
        self._object_types[str(oid)] = type_name
        return oid

    def is_readonly(self, object_id: ObjectId, method: str) -> bool:
        """Whether ``method`` of this object is declared read-only."""
        type_name = self._object_types.get(str(object_id))
        if type_name is None:
            return False
        object_type = self._types[type_name]
        if not object_type.has_method(method):
            return False  # let a primary report the unknown method
        return object_type.method_def(method).readonly

    def type_named(self, name: str) -> ObjectType:
        return self._types[name]

    # -- clients -----------------------------------------------------------

    def client(self, name: str, **kwargs: Any) -> ClusterClient:
        client = ClusterClient(self, name, **kwargs)
        self._clients.append(client)
        return client

    def run_invoke(self, client: ClusterClient, object_id: ObjectId, method: str, *args: Any):
        """Convenience for tests: run the sim until one invocation completes."""
        self.start()
        process = self.sim.process(client.invoke(object_id, method, *args))
        return self.sim.run_until_triggered(process, limit=self.sim.now + 60_000)

    # -- execution capture (used by StoreNode) -------------------------------

    def begin_capture(self) -> ExecutionCapture:
        self.capture = ExecutionCapture()
        return self.capture

    def end_capture(self) -> None:
        self.capture = None

    # -- failure injection ---------------------------------------------------

    def crash_node(self, name: str) -> None:
        """Fail-stop a storage node."""
        self.node(name).crash()

    def recover_node(self, name: str) -> None:
        """Bring a crashed storage node back online (state intact)."""
        self.node(name).recover()

    def live_nodes(self) -> list[StoreNode]:
        """Storage nodes currently up."""
        return [node for node in self.nodes.values() if not node.crashed]

    # -- quiescence (used by the chaos/consistency harness) -------------------

    def is_quiet(self) -> bool:
        """Whether no request, replication round, or remote charge is in
        flight anywhere on a live node.

        Backup appliers only count while their node is still a member of
        the shard under the applier's recorded primary — an applier
        stranded by reconfiguration can legitimately hold buffered
        sequences forever.
        """
        _epoch, shard_map = self.current_config()
        for node in self.live_nodes():
            # Requests, remote charges, parked backup reads (they resolve
            # within the park window) and deferred acks (§5j: they flush
            # within the ack_flush_ms window).
            if any(node.outstanding()):
                return False
            for shard_id, pipeline in node.pipelines.items():
                if pipeline.idle:
                    continue
                replica_set = shard_map.replica_set_or_none(shard_id)
                # A deposed primary's pipeline may legitimately never
                # settle (mirrors the stranded-applier rule below).
                if replica_set is not None and replica_set.primary == node.name:
                    return False
            for shard_id, applier in node.backup_appliers.items():
                if applier.pending_count == 0:
                    continue
                replica_set = shard_map.replica_set_or_none(shard_id)
                if (
                    replica_set is not None
                    and node.name in replica_set.members
                    and applier.primary == replica_set.primary
                ):
                    return False
        return True

    def quiesce(self, settle_ms: float = 25.0, max_ms: float = 10_000.0) -> bool:
        """Run the simulation until the cluster is quiescent (no in-flight
        work for two consecutive settle windows).  Returns True on success,
        False if ``max_ms`` of simulated time elapsed first.  Callers must
        clear injected faults (heal partitions, zero drop rates) first."""
        deadline = self.sim.now + max_ms
        quiet_streak = 0
        while self.sim.now < deadline:
            self.sim.run(until=self.sim.now + settle_ms)
            if self.is_quiet():
                quiet_streak += 1
                if quiet_streak >= 2:
                    return True
            else:
                quiet_streak = 0
        return self.is_quiet()

    def close(self) -> None:
        """Close any durable databases the cluster opened."""
        for db in self._dbs:
            db.close()
        self._dbs.clear()

    # -- metrics -----------------------------------------------------------

    def total_node_stats(self) -> dict[str, float]:
        """Summed per-node counters.  Values are floats: most counters are
        integral, but ``busy_ms`` is simulated milliseconds."""
        totals: dict[str, float] = {}
        for node in self.nodes.values():
            for key, value in node.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals
