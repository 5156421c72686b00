"""The OpenWhisk-style front door: load balancer + durable request log.

Paper §4.1: clients contact the compute layer through a load balancer
that distributes computation and durably logs every request (Kafka in
OpenWhisk) so a compute-node failure can never lose a response.  The
paper's measurements bypass this component; the architecture ablation
(`abl_coldstart` with ``use_gateway=True``) includes it.  The baseline
has no admission control: a request is shed (a
:class:`~repro.rpc.RetryAfter`) only when no compute node is reachable.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.messages import ClientRequest
from repro.obs.registry import StatsView
from repro.rpc import RetryAfter, RpcEndpoint
from repro.serverless.request_log import DurableRequestLog
from repro.sim.core import Simulation
from repro.sim.network import Network


class GatewayStats(StatsView):
    """Gateway forwarding counters, exported as ``gateway_*`` series."""

    PREFIX = "gateway"
    COUNTERS = {"forwarded": 0, "shed": 0, "skipped_dead_targets": 0}
    GAUGES = {"queue_depth": 0}


class Gateway:
    """Round-robin load balancer with durable request logging."""

    #: advised backoff when every compute node is crashed or unreachable
    DEAD_TARGET_RETRY_MS = 5.0

    def __init__(
        self,
        sim: Simulation,
        net: Network,
        name: str,
        compute_nodes: list[str],
        log: DurableRequestLog,
        registry: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.name = name
        self.endpoint = RpcEndpoint(sim, net, name, registry=registry)
        self.host = self.endpoint.host
        self._compute_nodes = list(compute_nodes)
        self._next = 0
        self.log = log
        self.stats = GatewayStats(registry, {"node": name})
        self._c_forwarded = self.stats.handle("forwarded")
        self._c_shed = self.stats.handle("shed")
        self._c_skipped = self.stats.handle("skipped_dead_targets")
        self._g_queue_depth = self.stats.handle("queue_depth")
        self.endpoint.on(ClientRequest, self._forward, spawn="fwd")

    def start(self) -> None:
        self.endpoint.start()

    def _forward(self, request: ClientRequest):
        self._g_queue_depth.set(self._g_queue_depth.value + 1)
        try:
            # Durability first: the request must survive compute failures.
            yield from self.log.append(request.request_id)
            target = self._next_live_target()
            if target is None:
                self._shed(request, self.DEAD_TARGET_RETRY_MS, "no live compute nodes")
                return
            self._c_forwarded.inc()
            # The compute node replies straight to the client.
            self.endpoint.send(target, request)
        finally:
            self._g_queue_depth.set(self._g_queue_depth.value - 1)

    def _next_live_target(self) -> Optional[str]:
        """The next compute node in round-robin order that is up and
        reachable, or None when there is none.

        A crashed host silently drops messages, so forwarding to one
        costs the client a full request timeout; skipping it here costs
        one liveness check.  The cursor still advances past skipped
        nodes, preserving round-robin fairness once they recover.
        """
        for _ in range(len(self._compute_nodes)):
            target = self._compute_nodes[self._next % len(self._compute_nodes)]
            self._next += 1
            if not self.net.host(target).crashed and not self.net.is_partitioned(
                self.name, target
            ):
                return target
            self._c_skipped.inc()
        return None

    def _shed(self, request: ClientRequest, retry_after_ms: float, reason: str) -> None:
        self._c_shed.inc()
        self.endpoint.send(
            request.client,
            RetryAfter(
                request.request_id,
                retry_after_ms,
                reason=reason,
                server=self.name,
            ),
        )
