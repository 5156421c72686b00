"""Assembly of the disaggregated baseline platform."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.core.ids import ObjectId
from repro.core.object_type import ObjectType
from repro.core.runtime import LocalRuntime
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.serverless.client import SimpleClient
from repro.serverless.compute_node import BaselineStorageNode, ComputeNode
from repro.serverless.container import ContainerPool
from repro.serverless.gateway import Gateway
from repro.serverless.request_log import DurableRequestLog
from repro.serverless.storage_client import RecordingStorage
from repro.sim.core import Simulation
from repro.sim.network import NET_CAP_MS, NET_SIGMA, LogNormalLatency, Network
from repro.wasm.host_api import OpCosts


@dataclass
class ServerlessConfig:
    """Shape of the baseline deployment.

    Defaults mirror the paper's evaluation: one compute machine, three
    storage machines, same cluster network, no load balancer (§5).  The
    network's shape and bandwidth are the constants of
    :mod:`repro.sim.network` that the LambdaStore cluster uses too, so
    the two platforms share one network model by construction.
    """

    num_compute_nodes: int = 1
    num_storage_nodes: int = 3
    cores_per_compute_node: int = 20
    cores_per_storage_node: int = 20
    container_pool_size: int = 120
    cold_start_ms: float = 120.0
    warm_start_ms: float = 0.3
    keepalive_ms: float = 60_000.0
    prewarm: bool = True
    ms_per_fuel: float = 0.005
    net_median_ms: float = 0.08
    read_from_any_replica: bool = True
    #: front the compute nodes with the load balancer + durable request
    #: log of §4.1 (the paper's measurements bypass it)
    use_gateway: bool = False
    #: compute-side fuel charged per function invocation (top-level or
    #: nested) for serverless dispatch work: scheduling, container hand-off,
    #: argument marshalling.  This is the §2.1 overhead that co-location
    #: avoids; the aggregated variant's equivalent is the (much smaller)
    #: wasm call_base cost.
    dispatch_overhead_fuel: float = 300.0
    #: transport egress coalescing (DESIGN.md §5j): frames to the same
    #: destination within the coalesce window share one wire message.
    #: The baseline has no replication acks to piggyback, so here the
    #: knob only packs same-window frames; off preserves the historical
    #: one-message-per-send behavior byte-for-byte.
    transport_coalescing: bool = False
    #: how long an egress frame may wait for companions (simulated ms)
    coalesce_window_ms: float = 0.0
    #: when > 0, a background process samples every registry instrument's
    #: time series at this simulated-ms interval (0 disables the sampler)
    metrics_sample_interval_ms: float = 0.0
    seed: int = 0


class ServerlessPlatform:
    """A complete simulated conventional-serverless deployment."""

    def __init__(self, sim: Simulation, config: Optional[ServerlessConfig] = None) -> None:
        self.sim = sim
        self.config = config or ServerlessConfig()
        self.net = Network(
            sim,
            latency=LogNormalLatency(
                self.config.net_median_ms, sigma=NET_SIGMA, cap_ms=NET_CAP_MS
            ),
        )
        if self.config.transport_coalescing:
            self.net.enable_coalescing(self.config.coalesce_window_ms)
        self.costs = OpCosts()
        self._id_rng = sim.rng("serverless.ids")
        #: same observability surface as the LambdaStore cluster, so the
        #: two systems' series are directly comparable
        self.metrics = MetricsRegistry(clock=lambda: sim.now)
        self.tracer: Optional[SpanTracer] = None

        self.storage_nodes = [
            BaselineStorageNode(
                sim,
                f"storage-{i}",
                cores=self.config.cores_per_storage_node,
                ms_per_fuel=self.config.ms_per_fuel,
            )
            for i in range(self.config.num_storage_nodes)
        ]
        for node in self.storage_nodes:
            self._register_storage_gauges(node)

        self.compute_nodes: list[ComputeNode] = []
        for i in range(self.config.num_compute_nodes):
            pool = ContainerPool(
                sim,
                capacity=self.config.container_pool_size,
                cold_start_ms=self.config.cold_start_ms,
                warm_start_ms=self.config.warm_start_ms,
                keepalive_ms=self.config.keepalive_ms,
                registry=self.metrics,
                labels={"node": f"compute-{i}"},
            )
            if self.config.prewarm:
                pool.prewarm(self.config.container_pool_size)
            self.compute_nodes.append(
                ComputeNode(
                    sim,
                    self.net,
                    platform=self,
                    name=f"compute-{i}",
                    storage_nodes=self.storage_nodes,
                    cores=self.config.cores_per_compute_node,
                    ms_per_fuel=self.config.ms_per_fuel,
                    container_pool=pool,
                    read_from_any_replica=self.config.read_from_any_replica,
                    dispatch_overhead_fuel=self.config.dispatch_overhead_fuel,
                )
            )

        # Families the baseline architecture structurally lacks: no
        # consistent result cache (compute is stateless, §2.1) and no
        # replication protocol (the storage client writes every replica
        # synchronously).  Register them anyway, permanently zero, so both
        # systems export the same metric families and cross-system
        # dashboards diff series instead of chasing missing names.
        for node in self.compute_nodes:
            for counter in (
                "cache_hits",
                "cache_misses",
                "cache_invalidations",
                "cache_validation_failures",
                "cache_stores",
            ):
                self.metrics.counter(
                    counter,
                    {"node": node.name},
                    help="always 0 in the baseline (no consistent cache)",
                )
        for node in self.storage_nodes:
            for counter in (
                "replication_shipped",
                "replication_acked",
                "replication_applied",
                "replication_buffered_out_of_order",
            ):
                self.metrics.counter(
                    counter,
                    {"node": node.name, "role": "none", "shard": "-"},
                    help="always 0 in the baseline (no replication protocol)",
                )

        self.gateway: Optional[Gateway] = None
        if self.config.use_gateway:
            self.gateway = Gateway(
                sim,
                self.net,
                "gateway",
                [node.name for node in self.compute_nodes],
                DurableRequestLog(sim, self.net.latency),
                registry=self.metrics,
            )

        # Setup-time runtime writing to every storage replica directly.
        self._setup_storage = RecordingStorage(
            [node.backend for node in self.storage_nodes], costs=self.costs
        )
        self._setup_runtime = LocalRuntime(
            storage=self._setup_storage, enable_cache=False, costs=self.costs
        )
        self._next_compute = 0
        self._started = False

    def _register_storage_gauges(self, node: Any) -> None:
        """Expose a baseline storage node's backend counters + busy time."""
        labels = {"node": node.name}
        backend = node.backend
        for op in ("gets", "puts", "deletes", "applies"):
            if hasattr(backend, op):
                self.metrics.gauge(
                    f"kvstore_{op}",
                    labels,
                    fn=lambda b=backend, attr=op: getattr(b, attr),
                )
        if hasattr(backend, "size_bytes"):
            self.metrics.gauge("kvstore_size_bytes", labels, fn=backend.size_bytes)
        self.metrics.gauge("node_busy_ms", labels, fn=lambda n=node: n.busy_ms)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        if self.config.metrics_sample_interval_ms > 0:
            self.sim.process(
                self.metrics.sampler_process(
                    self.sim, self.config.metrics_sample_interval_ms
                ),
                name="serverless.metrics-sampler",
            )
        for node in self.compute_nodes:
            node.start()
        if self.gateway is not None:
            self.gateway.start()

    def enable_tracing(
        self, max_spans: int = 100_000, sample_rate: float = 1.0
    ) -> SpanTracer:
        """Attach one platform-wide span tracer (idempotent), recording
        ``sample_rate`` of the traces (head-based, as on the cluster)."""
        if self.tracer is None:
            self.tracer = SpanTracer(
                clock=lambda: self.sim.now,
                max_spans=max_spans,
                sample_rate=sample_rate,
            )
            for node in self.compute_nodes:
                node.runtime.tracer = self.tracer
        return self.tracer

    def entry_point(self) -> str:
        """Where clients send requests: the gateway, or a compute node
        round-robin (the paper's setup contacts executing nodes directly)."""
        if self.gateway is not None:
            return self.gateway.name
        node = self.compute_nodes[self._next_compute % len(self.compute_nodes)]
        self._next_compute += 1
        return node.name

    # -- types and objects ---------------------------------------------------

    def register_type(self, object_type: ObjectType) -> None:
        self._setup_runtime.register_type(object_type)
        for node in self.compute_nodes:
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
        """Create an object in the storage layer (setup-time operation)."""
        oid = object_id if object_id is not None else ObjectId.generate(self._id_rng)
        self._setup_runtime.create_object(type_name, object_id=oid, initial=initial)
        return oid

    # -- clients -----------------------------------------------------------

    def client(self, name: str, **kwargs: Any) -> SimpleClient:
        return SimpleClient(self, name, **kwargs)

    def run_invoke(self, client: SimpleClient, object_id: ObjectId, method: str, *args: Any):
        """Convenience for tests: run the sim until one invocation completes."""
        self.start()
        process = self.sim.process(client.invoke(object_id, method, *args))
        return self.sim.run_until_triggered(process, limit=self.sim.now + 600_000)
