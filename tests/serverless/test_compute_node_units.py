"""Focused compute-node behaviours: dispatch overhead, replica routing,
storage-side CPU contention."""

import pytest

from repro.core import ObjectType, ValueField, method, readonly_method
from repro.serverless import ServerlessConfig, ServerlessPlatform
from repro.sim import Simulation


def chain_type():
    def fan(self, targets):
        for target in targets:
            self.get_object(target).bump()
        return len(targets)

    def bump(self):
        self.set("v", (self.get("v") or 0) + 1)
        return self.get("v")

    def read(self):
        return self.get("v") or 0

    return ObjectType(
        "Chain",
        fields=[ValueField("v", default=0)],
        methods=[method(fan), method(bump), readonly_method(read)],
    )


def build(seed=1, **kwargs):
    sim = Simulation(seed=seed)
    platform = ServerlessPlatform(sim, ServerlessConfig(seed=seed, **kwargs))
    platform.register_type(chain_type())
    platform.start()
    return sim, platform


def test_dispatch_overhead_scales_with_invocation_count():
    sim_a, cheap = build(seed=2, dispatch_overhead_fuel=0.0)
    sim_b, costly = build(seed=2, dispatch_overhead_fuel=500.0)
    latencies = {}
    for label, platform in [("cheap", cheap), ("costly", costly)]:
        hub = platform.create_object("Chain")
        targets = [platform.create_object("Chain") for _ in range(6)]
        client = platform.client("c")
        platform.run_invoke(client, hub, "fan", list(targets))
        latencies[label] = client.completions[-1][0]
    # 7 invocations x 500 fuel x 0.005 ms/fuel = 17.5 ms extra, at least.
    assert latencies["costly"] > latencies["cheap"] + 15.0


def test_reads_route_to_replicas_when_enabled():
    sim, platform = build(seed=3)
    oid = platform.create_object("Chain")
    client = platform.client("c")
    for _ in range(30):
        platform.run_invoke(client, oid, "read")
    busy = [node.busy_ms for node in platform.storage_nodes]
    assert sum(1 for b in busy if b > 0) >= 2  # spread across replicas


def test_storage_cpu_contention_slows_requests():
    # One storage core: concurrent requests queue on the storage node.
    sim, platform = build(seed=5, num_storage_nodes=1, cores_per_storage_node=1)
    oid = platform.create_object("Chain")
    clients = [platform.client(f"c{i}") for i in range(8)]
    processes = [sim.process(c.invoke(oid, "read")) for c in clients]
    sim.run_until_triggered(sim.all_of(processes), limit=600_000)
    latencies = sorted(c.completions[0][0] for c in clients)
    assert latencies[-1] > latencies[0]  # the queue is visible


def test_failed_invocation_releases_container():
    sim, platform = build(seed=6)
    oid = platform.create_object("Chain")
    client = platform.client("c")
    from repro.errors import InvocationFailed

    with pytest.raises(InvocationFailed):
        platform.run_invoke(client, oid, "no_such_method")
    # The pool slot came back: the next request succeeds.
    assert platform.run_invoke(client, oid, "read") == 0
    assert platform.compute_nodes[0].pool.in_use == 0
