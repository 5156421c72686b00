"""Gateway behaviours: dead-node skipping, dead-target shedding, stats export."""

import pytest

from repro.core import ObjectType, ValueField, method, readonly_method
from repro.errors import RequestTimeout
from repro.serverless import ServerlessConfig, ServerlessPlatform
from repro.sim import Simulation


def counter_type():
    def increment(self, by=1):
        self.set("count", (self.get("count") or 0) + by)
        return self.get("count")

    def read(self):
        return self.get("count") or 0

    return ObjectType(
        "Counter",
        fields=[ValueField("count", default=0)],
        methods=[method(increment), readonly_method(read)],
    )


def build_platform(seed=1, **kwargs):
    sim = Simulation(seed=seed)
    platform = ServerlessPlatform(
        sim, ServerlessConfig(seed=seed, use_gateway=True, **kwargs)
    )
    platform.register_type(counter_type())
    platform.start()
    return sim, platform


def test_forwarding_skips_crashed_compute_node_mid_run():
    """Regression: round-robin used to keep forwarding to crashed nodes,
    costing the client a full request timeout per unlucky draw."""
    sim, platform = build_platform(num_compute_nodes=3)
    oid = platform.create_object("Counter")
    client = platform.client("c0")
    for i in range(3):
        assert platform.run_invoke(client, oid, "increment", 1) == i + 1
    # Crash one compute node mid-run: every later request must still
    # complete without burning a timeout on the dead target.
    platform.net.crash("compute-1")
    before = sim.now
    for i in range(6):
        assert platform.run_invoke(client, oid, "increment", 1) == 4 + i
    assert platform.gateway.stats.skipped_dead_targets >= 2
    assert platform.gateway.stats.forwarded == 9
    # No request waited out a timeout against the dead node.
    assert sim.now - before < client.stub.default_deadline_ms
    # Recovery puts the node back into the rotation.
    platform.net.recover("compute-1")
    skipped = platform.gateway.stats.skipped_dead_targets
    for i in range(3):
        assert platform.run_invoke(client, oid, "increment", 1) == 10 + i
    assert platform.gateway.stats.skipped_dead_targets == skipped


def test_all_compute_nodes_dead_sheds_with_retry_after():
    sim, platform = build_platform(num_compute_nodes=2)
    oid = platform.create_object("Counter")
    client = platform.client("c0")
    assert platform.run_invoke(client, oid, "increment", 1) == 1
    platform.net.crash("compute-0")
    platform.net.crash("compute-1")
    with pytest.raises(RequestTimeout, match="no live compute nodes"):
        platform.run_invoke(client, oid, "increment", 1)
    assert platform.gateway.stats.shed == 1


def test_gateway_stats_are_registry_backed():
    sim, platform = build_platform(num_compute_nodes=2)
    oid = platform.create_object("Counter")
    client = platform.client("c0")
    for _ in range(4):
        platform.run_invoke(client, oid, "increment", 1)
    labels = {"node": "gateway"}
    assert platform.metrics.get("gateway_forwarded", labels).value == 4
    assert platform.metrics.get("gateway_shed", labels).value == 0
    # The forwarding pipeline fully drained between invocations.
    assert platform.metrics.get("gateway_queue_depth", labels).value == 0

