"""Compute nodes: where baseline functions execute, far from their data.

Each invocation: acquire a container (cold/warm), execute the function,
charge CPU for its metered fuel, then replay every recorded storage
operation as a network round trip to the storage replica set — request
latency, storage-side CPU under contention, response latency.  Nested
function calls execute on the same compute node (as in the paper's
evaluation, which has no load balancer) but pay a per-dispatch overhead.
"""

from __future__ import annotations

from repro.core.runtime import LocalRuntime
from repro.core.storage import MemoryBackend
from repro.cluster.messages import ClientReply, ClientRequest
from repro.errors import InvocationError, UnknownObjectError, WasmError
from repro.obs.registry import StatsView
from repro.rpc import RpcEndpoint
from repro.serverless.container import ContainerPool
from repro.serverless.storage_client import RecordingStorage, StorageOp
from repro.sim.core import Simulation
from repro.sim.network import Network
from repro.sim.resources import Resource


class ComputeStats(StatsView):
    """Per-compute-node counters.

    ``PREFIX = "node"``: compute nodes are the baseline's request-serving
    nodes, so ``node_requests``/``node_busy_ms`` compare directly against
    the LambdaStore storage nodes' series of the same names.
    """

    PREFIX = "node"
    COUNTERS = {
        "requests": 0,
        "failed": 0,
        #: always 0: the baseline has no admission control
        "shed_requests": 0,
        "storage_round_trips": 0,
        "busy_ms": 0.0,
    }


class BaselineStorageNode:
    """A storage replica in the baseline: a backend plus a CPU to contend on."""

    def __init__(self, sim: Simulation, name: str, cores: int, ms_per_fuel: float) -> None:
        self.sim = sim
        self.name = name
        self.cpu = Resource(sim, cores)
        self.ms_per_fuel = ms_per_fuel
        self.backend = MemoryBackend()
        self.busy_ms = 0.0

    def serve_op(self, op: StorageOp):
        """Simulation process: storage-side handling of one operation."""
        yield self.cpu.request()
        started = self.sim.now
        try:
            yield self.sim.timeout(op.fuel * self.ms_per_fuel)
        finally:
            self.busy_ms += self.sim.now - started
            self.cpu.release()


class ComputeNode:
    """One stateless function-execution node."""

    def __init__(
        self,
        sim: Simulation,
        net: Network,
        platform,
        name: str,
        storage_nodes: list[BaselineStorageNode],
        cores: int = 20,
        ms_per_fuel: float = 0.005,
        container_pool: ContainerPool | None = None,
        dispatch_overhead_fuel: float = 300.0,
    ) -> None:
        self.sim = sim
        self.net = net
        self.platform = platform
        self.name = name
        self.endpoint = RpcEndpoint(
            sim, net, name, registry=getattr(platform, "metrics", None)
        )
        self.host = self.endpoint.host
        self.endpoint.on(ClientRequest, self._handle, spawn="req")
        self.cpu = Resource(sim, cores)
        self.pool = container_pool or ContainerPool(sim)
        self.storage_nodes = storage_nodes
        self.ms_per_fuel = ms_per_fuel
        self._dispatch_overhead = dispatch_overhead_fuel
        self._rng = sim.rng(f"{name}.routing")
        self.storage = RecordingStorage(
            [node.backend for node in storage_nodes], costs=platform.costs
        )
        registry = getattr(platform, "metrics", None)
        labels = {"node": name}
        self.runtime = LocalRuntime(
            storage=self.storage,
            clock=lambda: sim.now,
            enable_cache=False,  # conventional serverless: no consistent cache
            costs=platform.costs,
            registry=registry,
            metrics_labels=labels,
            trace_node=name,
        )
        self.stats = ComputeStats(registry, labels)
        # Preresolved counter handles for the per-request hot path (see
        # StatsView.handle).
        self._c_requests = self.stats.cell("requests")
        self._c_failed = self.stats.cell("failed")
        self._c_storage_round_trips = self.stats.cell("storage_round_trips")
        self._c_busy_ms = self.stats.cell("busy_ms")

    @property
    def tracer(self):
        """The platform-wide span tracer, or None when tracing is off."""
        return getattr(self.platform, "tracer", None)

    def start(self) -> None:
        self.endpoint.start()

    def _handle(self, request: ClientRequest):
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
            yield from self._handle_inner(request, root)
        finally:
            if root is not None and not root.finished:
                tracer.end(root)

    def _handle_inner(self, request: ClientRequest, root=None):
        tracer = self.tracer
        self._c_requests.inc()
        if tracer is not None and root is not None:
            acquire_span = tracer.start("container.acquire", parent=root)
            yield from self.pool.acquire()
            tracer.end(acquire_span)
        else:
            yield from self.pool.acquire()
        try:
            # Execute the function; its storage accesses are recorded.
            trace = self.storage.begin_trace()
            try:
                if tracer is not None and root is not None:
                    with tracer.activate(root):
                        result = self.runtime.invoke_detailed(
                            request.object_id, request.method, *request.args
                        )
                else:
                    result = self.runtime.invoke_detailed(
                        request.object_id, request.method, *request.args
                    )
            except (InvocationError, UnknownObjectError, WasmError) as error:
                # WasmError covers link failures (unknown method) and guest
                # traps: without it the request died here unanswered and the
                # client burned its full timeout on a definitive failure.
                self._c_failed.inc()
                reply = ClientReply(request.request_id, False, error=str(error))
                self.endpoint.send(request.client, reply)
                return
            finally:
                self.storage.end_trace()

            # CPU time: function bodies plus per-invocation dispatch
            # overhead (every nested call is its own serverless dispatch).
            total_fuel = result.total_fuel() + self._dispatch_overhead * result.total_invocations()
            yield self.cpu.request()
            started = self.sim.now
            try:
                yield self.sim.timeout(total_fuel * self.ms_per_fuel)
            finally:
                self._c_busy_ms.inc(self.sim.now - started)
                self.cpu.release()

            # Replay each storage access as a round trip.
            if tracer is None:
                for op in trace:
                    yield from self._storage_round_trip(op)
            else:
                for op in trace:
                    yield from self._traced_round_trip(tracer, op, root)

            reply = ClientReply(request.request_id, True, value=result.value)
            self.endpoint.send(request.client, reply)
        finally:
            self.pool.release()

    def _traced_round_trip(self, tracer, op: StorageOp, parent):
        span = tracer.start(
            "storage.round_trip", parent=parent, node=self.name, op=op.kind
        )
        try:
            yield from self._storage_round_trip(op)
        finally:
            tracer.end(span)

    def _storage_round_trip(self, op: StorageOp):
        self._c_storage_round_trips.inc()
        if op.replica_ok:
            target = self._rng.choice(self.storage_nodes)
        else:
            target = self.storage_nodes[0]  # the primary
        latency = self.net.latency
        rng = self._rng
        yield self.sim.timeout(latency.sample(rng) + op.size_bytes / (1250 * 1000))
        yield from target.serve_op(op)
        yield self.sim.timeout(latency.sample(rng))
