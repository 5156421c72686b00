"""RpcStub: deadlines, retries, waiter wake-ups, and auto-metrics."""

from dataclasses import dataclass

from repro.obs.registry import MetricsRegistry
from repro.rpc import RetryPolicy, RpcEndpoint, RpcStub
from repro.sim import ConstantLatency, Network, Simulation


@dataclass
class Ping:
    seq: int

    def size(self) -> int:
        return 16


@dataclass
class Pong:
    seq: int

    def size(self) -> int:
        return 16


def build(latency_ms: float = 1.0, registry=None):
    sim = Simulation(seed=1)
    net = Network(sim, latency=ConstantLatency(latency_ms))
    stub = RpcStub(sim, net, "client", default_deadline_ms=20.0, registry=registry)
    return sim, net, stub


def echo_server(sim, net, name="server", drop_first=0):
    """An endpoint that pongs every ping, optionally dropping the first N."""
    endpoint = RpcEndpoint(sim, net, name)
    state = {"seen": 0}

    def handle(ping):
        state["seen"] += 1
        if state["seen"] <= drop_first:
            return
        endpoint.send("client", Pong(ping.seq))

    endpoint.on(Ping, handle)
    endpoint.start()
    return state


def test_call_returns_matching_reply():
    sim, net, stub = build()
    echo_server(sim, net)
    got = []

    def caller():
        reply = yield from stub.call(
            "server", Ping(7), lambda p: isinstance(p, Pong) and p.seq == 7
        )
        got.append((reply, sim.now))

    sim.process(caller())
    sim.run()
    assert got[0][0] == Pong(7)
    assert got[0][1] < 20.0  # well before the deadline


def test_deadline_expiry_returns_none():
    sim, net, stub = build()
    # no server host even exists: the send is dropped, the call times out
    net.add_host("server")
    got = []

    def caller():
        reply = yield from stub.call("server", Ping(1), lambda p: isinstance(p, Pong))
        got.append((reply, sim.now))

    sim.process(caller())
    sim.run()
    assert got == [(None, 20.0)]  # exactly the default deadline


def test_retry_recovers_from_lost_request():
    registry = MetricsRegistry()
    sim, net, stub = build(registry=registry)
    state = echo_server(sim, net, drop_first=1)
    got = []

    def caller():
        reply = yield from stub.call(
            "server",
            Ping(3),
            lambda p: isinstance(p, Pong) and p.seq == 3,
            retry=RetryPolicy(max_attempts=3),
        )
        got.append(reply)

    sim.process(caller())
    sim.run()
    assert got == [Pong(3)]
    assert state["seen"] == 2
    labels = {"node": "client", "method": "Ping", "peer": "server"}
    assert registry.get("rpc_calls", labels).value == 1
    assert registry.get("rpc_retries", labels).value == 1
    assert registry.get("rpc_timeouts", labels).value == 1


def test_should_retry_and_on_retry_drive_the_schedule():
    sim, net, stub = build()
    endpoint = RpcEndpoint(sim, net, "server")
    endpoint.on(Ping, lambda ping: endpoint.send("client", Pong(ping.seq)))
    endpoint.start()
    retries_seen = []

    def caller():
        # Pongs with seq < 2 are "retryable errors"; the payload callable
        # bumps seq per attempt, so the third attempt succeeds.
        reply = yield from stub.call(
            "server",
            lambda attempt: Ping(attempt),
            lambda p: isinstance(p, Pong),
            retry=RetryPolicy(max_attempts=5),
            should_retry=lambda pong: pong.seq < 2,
            on_retry=lambda attempt, pong: retries_seen.append((attempt, pong.seq)),
        )
        return reply

    process = sim.process(caller())
    sim.run()
    assert process.value == Pong(2)
    assert retries_seen == [(0, 0), (1, 1)]


def test_generator_on_retry_runs_before_next_attempt():
    """``on_retry`` may be a generator (e.g. the cluster client's config
    refresh round trip); the stub must drive it to completion — including
    its timeouts — before rebuilding the next attempt's payload."""
    sim, net, stub = build()
    endpoint = RpcEndpoint(sim, net, "server")
    endpoint.on(Ping, lambda ping: endpoint.send("client", Pong(ping.seq)))
    endpoint.start()
    state = {"config": 0}
    hook_done_at = []

    def on_retry(_attempt, pong):
        # Simulate a refresh: only after a simulated round trip does the
        # shared config advance past the retry threshold.
        yield sim.timeout(3.0)
        state["config"] = pong.seq + 10
        hook_done_at.append(sim.now)

    def caller():
        return (
            yield from stub.call(
                "server",
                lambda attempt: Ping(state["config"] + attempt),
                lambda p: isinstance(p, Pong),
                retry=RetryPolicy(max_attempts=5),
                should_retry=lambda pong: pong.seq < 10,
                on_retry=on_retry,
            )
        )

    process = sim.process(caller())
    sim.run()
    # Attempt 0 sent Ping(0) -> Pong(0), retryable.  The generator hook
    # ran to completion (config = 10) BEFORE attempt 1 built its payload,
    # so attempt 1 sent Ping(11) and was accepted.  If the stub had only
    # invoked the hook without driving the generator, config would still
    # be 0 and every attempt would exhaust on seq < 10.
    assert process.value == Pong(11)
    assert hook_done_at and hook_done_at[0] >= 3.0


def test_exhausted_retries_return_last_reply():
    sim, net, stub = build()
    endpoint = RpcEndpoint(sim, net, "server")
    endpoint.on(Ping, lambda ping: endpoint.send("client", Pong(-1)))
    endpoint.start()

    def caller():
        return (
            yield from stub.call(
                "server",
                Ping(0),
                lambda p: isinstance(p, Pong),
                retry=RetryPolicy(max_attempts=3),
                should_retry=lambda pong: True,  # never satisfied
            )
        )

    process = sim.process(caller())
    sim.run()
    assert process.value == Pong(-1)  # the caller classifies, the stub never raises


def test_duplicate_replies_are_suppressed_by_predicate_consumption():
    """Two identical pongs: the first satisfies the call, the stale second
    stays unmatched and is dropped by a discarding stub's next scan."""
    sim = Simulation(seed=1)
    net = Network(sim, latency=ConstantLatency(1.0))
    stub = RpcStub(
        sim, net, "client", default_deadline_ms=20.0, discard_unmatched=True
    )
    endpoint = RpcEndpoint(sim, net, "server")

    def handle(ping):
        endpoint.send("client", Pong(ping.seq))
        endpoint.send("client", Pong(ping.seq))  # duplicate (e.g. resent reply)

    endpoint.on(Ping, handle)
    endpoint.start()
    got = []

    def caller():
        first = yield from stub.call(
            "server", Ping(1), lambda p: isinstance(p, Pong) and p.seq == 1
        )
        # The duplicate Pong(1) must not satisfy this second exchange.
        second = yield from stub.call(
            "server", Ping(2), lambda p: isinstance(p, Pong) and p.seq == 2
        )
        got.append((first, second))

    sim.process(caller())
    sim.run()
    assert got == [(Pong(1), Pong(2))]
    # The stale Pong(1) duplicate was discarded by the second call's scan;
    # only the not-yet-scanned Pong(2) duplicate remains.
    assert stub._mail == [Pong(2)]


def test_stale_signal_regression_concurrent_waiters():
    """The bug the waiter list fixes: with the old single-signal slot, a
    second concurrent awaiter overwrote the first's signal, so the first
    waiter's message only surfaced at its *deadline* rescan.  Both
    waiters must wake at delivery time."""
    sim = Simulation(seed=1)
    net = Network(sim, latency=ConstantLatency(1.0))
    stub = RpcStub(sim, net, "client", default_deadline_ms=100.0)
    net.add_host("server")
    woke = {}

    def waiter(tag, seq):
        reply = yield from stub.await_message(
            lambda p: isinstance(p, Pong) and p.seq == seq
        )
        woke[tag] = (reply, sim.now)

    sim.process(waiter("first", 1))
    sim.process(waiter("second", 2))
    # Deliver the *first* waiter's message; the old code would have woken
    # only the most recent waiter ("second"), stranding "first" until its
    # 100 ms deadline.
    net.send("server", "client", Pong(1), size_bytes=16)
    sim.run(until=10.0)
    assert woke["first"][0] == Pong(1)
    assert woke["first"][1] < 5.0  # delivery time, not the 100 ms deadline
    assert "second" not in woke  # still parked, signal intact
    net.send("server", "client", Pong(2), size_bytes=16)
    sim.run(until=20.0)
    assert woke["second"][0] == Pong(2)
    assert woke["second"][1] < 100.0


def test_timed_out_waiter_leaves_the_waiter_list():
    """After a timeout wake the waiter must deregister — the stale-signal
    half of the fix: the next delivery wakes only live waiters."""
    sim = Simulation(seed=1)
    net = Network(sim, latency=ConstantLatency(1.0))
    stub = RpcStub(sim, net, "client", default_deadline_ms=5.0)
    net.add_host("server")
    got = []

    def waiter():
        reply = yield from stub.await_message(lambda p: False)
        got.append(reply)

    sim.process(waiter())
    sim.run()
    assert got == [None]
    assert stub._waiters == []


def test_zero_delay_retries_floor_after_the_first_immediate_one():
    """A zero-delay policy retrying zero-time attempts must not spin the
    now-lane: the first immediate retry is free (the historical leader-
    hint-chasing shape), every later consecutive one advances time by the
    backoff floor."""
    sim = Simulation(seed=1)
    # Zero latency AND infinite bandwidth: every attempt completes at the
    # instant it was sent, the case the floor exists for.
    net = Network(sim, latency=ConstantLatency(0.0), bandwidth_mbps=float("inf"))
    stub = RpcStub(sim, net, "client", default_deadline_ms=20.0)
    endpoint = RpcEndpoint(sim, net, "server")
    endpoint.on(Ping, lambda ping: endpoint.send("client", Pong(ping.seq)))
    endpoint.start()
    got = []

    def caller():
        # Pongs with seq < 3 are "retryable"; the payload callable bumps
        # seq per attempt, so the fourth attempt succeeds.
        reply = yield from stub.call(
            "server",
            lambda attempt: Ping(attempt),
            lambda p: isinstance(p, Pong),
            retry=RetryPolicy(max_attempts=4),
            should_retry=lambda p: p.seq < 3,
        )
        got.append((reply, sim.now))

    sim.process(caller())
    sim.run()
    reply, finished_at = got[0]
    assert reply == Pong(3)
    # attempt 0 -> 1 free, attempts 1 -> 2 and 2 -> 3 floored.
    expected = 2 * RpcStub.MIN_BACKOFF_FLOOR_MS
    assert abs(finished_at - expected) < 1e-9, finished_at


def test_retry_after_overrides_policy_delay_and_returns_on_exhaustion():
    """A RetryAfter matching the call's request_id always retries after
    the *server's* advice; when attempts run out, the RetryAfter itself
    comes back so the caller can classify the failure as overload."""
    from repro.rpc import RetryAfter

    sim, net, stub = build(latency_ms=1.0)
    endpoint = RpcEndpoint(sim, net, "server")
    mode = {"shed_first": 1, "request_id": "req-1", "advice_ms": 40.0}

    def handle(ping):
        if mode["shed_first"] > 0:
            mode["shed_first"] -= 1
            endpoint.send(
                "client",
                RetryAfter(mode["request_id"], mode["advice_ms"], server="server"),
            )
        else:
            endpoint.send("client", Pong(ping.seq))

    endpoint.on(Ping, handle)
    endpoint.start()
    got = []

    def caller():
        reply = yield from stub.call(
            "server",
            Ping(5),
            lambda p: isinstance(p, Pong) and p.seq == 5,
            retry=RetryPolicy(max_attempts=2),  # zero policy delay
            request_id="req-1",
        )
        got.append((reply, sim.now))

    sim.process(caller())
    sim.run()
    reply, finished_at = got[0]
    assert reply == Pong(5)
    # 2 ms round trip + the advised 40 ms + the second round trip: the
    # 40 ms sleep came from the server, not the (zero-delay) policy.
    assert finished_at >= 42.0

    def exhausted():
        reply = yield from stub.call(
            "server",
            Ping(6),
            lambda p: isinstance(p, Pong) and p.seq == 6,
            request_id="req-2",
        )
        got.append(reply)

    # Shed every remaining attempt: the single-attempt call exhausts.
    mode.update(shed_first=10_000, request_id="req-2", advice_ms=7.5)
    sim.process(exhausted())
    sim.run()
    last = got[-1]
    assert type(last) is RetryAfter
    assert last.retry_after_ms == 7.5
