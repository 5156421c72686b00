"""The retry loops of ClusterClient.invoke and Migrator._submit_command.

Each test points the caller at scripted endpoints on a zero-latency,
infinite-bandwidth network, so the gap between two attempts arriving
there is exactly the delay the caller slept between them.
"""

import pytest

from repro.cluster.messages import ClientReply, ClientRequest, CoordCommand, CoordReply
from repro.cluster.migration import Migrator
from repro.errors import ClusterError, InvocationFailed
from repro.rpc import RetryAfter, RpcEndpoint
from repro.sim import ConstantLatency, Simulation

from tests.cluster.conftest import build_cluster


def client_against_sink(script):
    """A cluster client whose every attempt lands at a ``sink`` endpoint
    answering the n-th request with ``script[n](request)``; returns the
    pieces and the list of ``(arrival time, request)`` the sink saw."""
    sim, cluster = build_cluster(bandwidth_mbps=float("inf"))
    cluster.net.latency = ConstantLatency(0.0)
    oid = cluster.create_object("Counter")
    client = cluster.client("c0")
    client._route = lambda _object_id, _readonly: "sink"
    sink = RpcEndpoint(sim, cluster.net, "sink")
    arrivals = []

    def handle(request):
        reply = script[len(arrivals)](request)
        arrivals.append((sim.now, request))
        sink.send(request.client, reply)

    sink.on(ClientRequest, handle)
    sink.start()
    return sim, cluster, client, oid, arrivals


def config_queries(cluster):
    """ConfigQuery calls the client ``c0`` has made, over all coordinators."""
    total = 0
    for coordinator in cluster.coordinator_names():
        counter = cluster.metrics.get(
            "rpc_calls", {"node": "c0", "method": "ConfigQuery", "peer": coordinator}
        )
        total += counter.value if counter is not None else 0
    return total


def run(sim, client, oid):
    process = sim.process(client.invoke(oid, "increment", 1))
    return sim.run_until_triggered(process, limit=sim.now + 10_000)


def test_backoff_before_attempt_n_plus_1_is_linear_jitter_from_client_stream():
    """Draw-for-draw ``uniform(0.1, 0.5) * (1 + n)`` from the client's own
    ``client.<name>`` stream, after a configuration refresh per retry."""
    rejections = 5

    def wrong_epoch(request):
        return ClientReply(request.request_id, ok=False, error="wrong epoch")

    def accept(request):
        return ClientReply(request.request_id, ok=True, value=42)

    sim, cluster, client, oid, arrivals = client_against_sink(
        [wrong_epoch] * rejections + [accept]
    )
    assert run(sim, client, oid) == 42
    replay = Simulation(seed=1).rng("client.c0")
    expected = [replay.uniform(0.1, 0.5) * (1 + n) for n in range(rejections)]
    gaps = [later[0] - earlier[0] for earlier, later in zip(arrivals, arrivals[1:])]
    assert gaps == pytest.approx(expected, abs=1e-9)
    assert config_queries(cluster) == rejections
    # One logical call: every attempt after the first is a retry.
    labels = {"node": "c0", "method": "increment", "peer": "sink"}
    assert cluster.metrics.get("rpc_calls", labels).value == 1
    assert cluster.metrics.get("rpc_retries", labels).value == rejections


def test_shed_attempt_sleeps_the_advice_and_sends_no_config_query():
    """Overload is not staleness: after a RetryAfter the client sleeps the
    server's advice, not its jitter, and does not refresh its config."""

    def shed(request):
        return RetryAfter(request.request_id, 7.5, reason="rate", server="sink")

    def accept(request):
        return ClientReply(request.request_id, ok=True, value=1)

    sim, cluster, client, oid, arrivals = client_against_sink([shed, accept])
    assert run(sim, client, oid) == 1
    assert len(arrivals) == 2
    assert arrivals[1][0] - arrivals[0][0] == pytest.approx(7.5, abs=1e-9)
    assert config_queries(cluster) == 0
    assert arrivals[0][1].epoch == arrivals[1][1].epoch
    labels = {"node": "c0", "method": "increment", "peer": "sink"}
    assert cluster.metrics.get("rpc_retry_after", labels).value == 1
    assert cluster.metrics.get("rpc_retries", labels).value == 1


def test_refresh_runs_before_the_next_attempt_builds_its_request():
    """After a stale-configuration rejection the client refreshes from the
    coordinators first, so the retry carries the refreshed epoch."""

    def wrong_epoch(request):
        return ClientReply(request.request_id, ok=False, error="wrong epoch")

    def accept(request):
        return ClientReply(request.request_id, ok=True, value=7)

    sim, cluster, client, oid, arrivals = client_against_sink([wrong_epoch, accept])
    current_epoch, _shard_map = cluster.current_config()
    client.epoch = current_epoch - 1
    assert run(sim, client, oid) == 7
    assert [request.epoch for _at, request in arrivals] == [current_epoch - 1, current_epoch]
    assert config_queries(cluster) == 1


def test_non_retryable_error_ends_the_loop():
    def fail(request):
        return ClientReply(request.request_id, ok=False, error="no such method")

    sim, cluster, client, oid, arrivals = client_against_sink([fail])
    with pytest.raises(InvocationFailed, match="no such method"):
        run(sim, client, oid)
    assert len(arrivals) == 1
    assert config_queries(cluster) == 0


def migrator_against_coordinators(answers):
    """A migrator whose commands go to scripted coordinators: ``answers``
    maps each coordinator name to its ``CoordReply`` factory."""
    sim, cluster = build_cluster(bandwidth_mbps=float("inf"))
    cluster.net.latency = ConstantLatency(0.0)
    cluster.coordinator_names = lambda: list(answers)
    migrator = Migrator(cluster)
    arrivals = []
    for name, answer in answers.items():
        endpoint = RpcEndpoint(sim, cluster.net, name)

        def handle(command, name=name, answer=answer, endpoint=endpoint):
            arrivals.append((sim.now, name))
            endpoint.send(migrator.name, answer(command))

        endpoint.on(CoordCommand, handle)
        endpoint.start()
    command = CoordCommand("migrator#1", "move_object", {})
    return sim, cluster, migrator, command, arrivals


def test_migrator_follows_leader_hints_without_delay():
    sim, cluster, migrator, command, arrivals = migrator_against_coordinators(
        {
            "coord-a": lambda c: CoordReply(c.command_id, ok=False, leader_hint="coord-b"),
            "coord-b": lambda c: CoordReply(c.command_id, ok=True, result="moved"),
        }
    )
    started = sim.now
    process = sim.process(migrator._submit_command(command))
    reply = sim.run_until_triggered(process, limit=sim.now + 1_000)
    assert reply.result == "moved"
    assert arrivals == [(started, "coord-a"), (started, "coord-b")]


def test_migrator_gives_up_after_ten_attempts():
    sim, cluster, migrator, command, arrivals = migrator_against_coordinators(
        {"coord-a": lambda c: CoordReply(c.command_id, ok=False)}
    )
    started = sim.now
    process = sim.process(migrator._submit_command(command))
    with pytest.raises(ClusterError, match="did not commit"):
        sim.run_until_triggered(process, limit=sim.now + 1_000)
    assert arrivals == [(started, "coord-a")] * 10
    labels = {"node": "migrator", "method": "CoordCommand.move_object", "peer": "coord-a"}
    assert cluster.metrics.get("rpc_calls", labels).value == 1
    assert cluster.metrics.get("rpc_retries", labels).value == 9
