"""End-to-end tests for the disaggregated baseline platform."""

import pytest

from repro.core import (
    CollectionField,
    ObjectType,
    ValueField,
    method,
    readonly_method,
)
from repro.errors import InvocationFailed
from repro.serverless import ServerlessConfig, ServerlessPlatform
from repro.serverless.request_log import DurableRequestLog
from repro.serverless.storage_client import RecordingStorage
from repro.sim import LogNormalLatency, Simulation


def counter_type():
    def increment(self, by=1):
        self.set("count", (self.get("count") or 0) + by)
        return self.get("count")

    def read(self):
        return self.get("count") or 0

    def fan_out(self, targets):
        for target in targets:
            self.get_object(target).increment(1)
        return len(targets)

    return ObjectType(
        "Counter",
        fields=[ValueField("count", default=0)],
        methods=[method(increment), readonly_method(read), method(fan_out)],
    )


def build_platform(seed=1, **kwargs):
    sim = Simulation(seed=seed)
    platform = ServerlessPlatform(sim, ServerlessConfig(seed=seed, **kwargs))
    platform.register_type(counter_type())
    platform.start()
    return sim, platform


def test_invoke_roundtrip():
    sim, platform = build_platform()
    oid = platform.create_object("Counter")
    client = platform.client("c0")
    assert platform.run_invoke(client, oid, "increment", 3) == 3
    assert platform.run_invoke(client, oid, "read") == 3


def test_storage_ops_become_round_trips():
    sim, platform = build_platform()
    oid = platform.create_object("Counter")
    client = platform.client("c0")
    platform.run_invoke(client, oid, "increment", 1)
    assert platform.compute_nodes[0].stats.storage_round_trips >= 2  # reads + commit


def test_writes_visible_on_all_storage_replicas():
    sim, platform = build_platform()
    oid = platform.create_object("Counter")
    client = platform.client("c0")
    platform.run_invoke(client, oid, "increment", 4)
    from repro.core import keyspace

    key = keyspace.value_key(oid, "count")
    values = {node.backend.get(key) for node in platform.storage_nodes}
    assert len(values) == 1


def test_nested_calls_execute_on_compute_node():
    sim, platform = build_platform()
    hub = platform.create_object("Counter")
    targets = [platform.create_object("Counter") for _ in range(3)]
    client = platform.client("c0")
    assert platform.run_invoke(client, hub, "fan_out", list(targets)) == 3
    for target in targets:
        assert platform.run_invoke(client, target, "read") == 1


def test_latency_grows_with_storage_ops():
    sim, platform = build_platform()
    oid = platform.create_object("Counter")
    targets = [platform.create_object("Counter") for _ in range(8)]
    client = platform.client("c0")
    platform.run_invoke(client, oid, "increment", 1)
    simple_latency = client.completions[-1][0]
    platform.run_invoke(client, oid, "fan_out", list(targets))
    fanout_latency = client.completions[-1][0]
    assert fanout_latency > simple_latency * 2


def test_cold_start_dominates_first_request_without_prewarm():
    sim, platform = build_platform(prewarm=False)
    cold_start_ms = platform.compute_nodes[0].pool.cold_start_ms
    oid = platform.create_object("Counter")
    client = platform.client("c0")
    platform.run_invoke(client, oid, "read")
    first = client.completions[-1][0]
    platform.run_invoke(client, oid, "read")
    second = client.completions[-1][0]
    assert first > cold_start_ms
    assert second < first / 10


def test_unknown_method_fails():
    sim, platform = build_platform()
    oid = platform.create_object("Counter")
    client = platform.client("c0")
    with pytest.raises(InvocationFailed):
        platform.run_invoke(client, oid, "nope")


def test_gateway_adds_log_append_and_forwards():
    sim, platform = build_platform(use_gateway=True)
    oid = platform.create_object("Counter")
    client = platform.client("c0")
    assert platform.run_invoke(client, oid, "increment", 1) == 1
    assert platform.gateway.stats.forwarded == 1
    assert platform.gateway.log.stats.appends == 1


def test_gateway_latency_higher_than_direct():
    sim1, direct = build_platform(seed=5, use_gateway=False)
    sim2, gated = build_platform(seed=5, use_gateway=True)
    results = []
    for platform in (direct, gated):
        oid = platform.create_object("Counter")
        client = platform.client("c0")
        platform.run_invoke(client, oid, "increment", 1)
        results.append(client.completions[-1][0])
    assert results[1] > results[0]


def test_round_robin_over_compute_nodes():
    sim, platform = build_platform(num_compute_nodes=2)
    oid = platform.create_object("Counter")
    client = platform.client("c0")
    for _ in range(4):
        platform.run_invoke(client, oid, "increment", 1)
    counts = [node.stats.requests for node in platform.compute_nodes]
    assert counts == [2, 2]


def test_no_result_caching_in_baseline():
    sim, platform = build_platform()
    oid = platform.create_object("Counter")
    client = platform.client("c0")
    platform.run_invoke(client, oid, "read")
    platform.run_invoke(client, oid, "read")
    assert platform.compute_nodes[0].runtime.stats.cache_hits == 0


def test_request_log_majority_latency():
    sim = Simulation(seed=9)
    log = DurableRequestLog(sim, LogNormalLatency(0.5), num_replicas=3)

    def append():
        offset = yield from log.append("entry")
        return offset

    process = sim.process(append())
    offset = sim.run_until_triggered(process, limit=1000)
    assert offset == 0
    assert sim.now > 0.5  # at least one majority round trip


def test_recording_storage_requires_backend():
    with pytest.raises(ValueError):
        RecordingStorage([])
