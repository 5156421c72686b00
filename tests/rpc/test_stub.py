"""RpcStub: deadlines, logical calls, waiter wake-ups, and auto-metrics."""

from dataclasses import dataclass

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.rpc import RetryAfter, RpcEndpoint, RpcStub
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
    tracer = SpanTracer(clock=lambda: sim.now)
    stub = RpcStub(
        sim,
        net,
        "client",
        default_deadline_ms=20.0,
        registry=registry,
        tracer_fn=lambda: tracer,
    )
    return sim, net, stub


def rpc_spans(stub):
    return [span for span in stub._tracer_fn().spans if span.name == "rpc.call"]


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


def test_call_makes_one_attempt():
    """A lost request is not resent: the call times out after one
    deadline, counted as one call and one timeout, no retry."""
    registry = MetricsRegistry()
    sim, net, stub = build(registry=registry)
    state = echo_server(sim, net, drop_first=1)
    got = []

    def caller():
        reply = yield from stub.call("server", Ping(3), lambda p: isinstance(p, Pong))
        got.append((reply, sim.now))

    sim.process(caller())
    sim.run()
    assert got == [(None, 20.0)]
    assert state["seen"] == 1
    labels = {"node": "client", "method": "Ping", "peer": "server"}
    assert registry.get("rpc_calls", labels).value == 1
    assert registry.get("rpc_retries", labels).value == 0
    assert registry.get("rpc_timeouts", labels).value == 1
    (span,) = rpc_spans(stub)
    assert (span.end_ms, span.status) == (20.0, "timeout")


def test_retry_recovers_from_lost_request():
    """The caller's loop resends after a timeout; the logical call counts
    one call, one retry and one timeout, and records one span from the
    first send to the end of the call."""
    registry = MetricsRegistry()
    sim, net, stub = build(registry=registry)
    state = echo_server(sim, net, drop_first=1)
    got = []

    def caller():
        with stub.open(request_id="req-3") as call:
            for _attempt in range(3):
                reply = yield from call.attempt(
                    "server", Ping(3), lambda p: isinstance(p, Pong) and p.seq == 3
                )
                if reply is not None:
                    break
        got.append((reply, call.attempts, sim.now))

    sim.process(caller())
    sim.run()
    reply, attempts, finished_at = got[0]
    assert (reply, attempts) == (Pong(3), 2)
    assert finished_at == pytest.approx(22.0, abs=1e-3)  # 20 ms deadline + 2 ms trip
    assert state["seen"] == 2
    labels = {"node": "client", "method": "Ping", "peer": "server"}
    assert registry.get("rpc_calls", labels).value == 1
    assert registry.get("rpc_retries", labels).value == 1
    assert registry.get("rpc_timeouts", labels).value == 1
    (span,) = rpc_spans(stub)
    assert (span.trace_id, span.start_ms, span.end_ms, span.status) == (
        "req-3", 0.0, finished_at, "ok"
    )


def test_exhausted_retries_return_last_reply():
    sim, net, stub = build()
    endpoint = RpcEndpoint(sim, net, "server")
    endpoint.on(Ping, lambda ping: endpoint.send("client", Pong(-ping.seq)))
    endpoint.start()

    def caller():
        # Every Pong is a "retryable error" to this caller: it gives up
        # after three attempts, holding the last one's reply.
        with stub.open() as call:
            for attempt in range(3):
                yield from call.attempt("server", Ping(attempt), lambda p: isinstance(p, Pong))
        return call.reply

    process = sim.process(caller())
    sim.run()
    assert process.value == Pong(-2)  # the caller classifies, the stub never raises


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


def test_retry_after_matches_only_the_calls_own_request_id():
    """A call given a request id also accepts a RetryAfter carrying that
    id — the server's advice comes back as the reply and is counted — but
    never one for another request, nor any when it has no request id."""
    registry = MetricsRegistry()
    sim, net, stub = build(registry=registry)
    endpoint = RpcEndpoint(sim, net, "server")
    shed_as = {"request_id": "other"}

    def handle(ping):
        endpoint.send("client", RetryAfter(shed_as["request_id"], 7.5, server="server"))

    endpoint.on(Ping, handle)
    endpoint.start()
    got = []

    def caller(seq, request_id):
        reply = yield from stub.call(
            "server", Ping(seq), lambda p: isinstance(p, Pong), request_id=request_id
        )
        got.append(reply)

    sim.process(caller(1, "mine"))  # someone else's RetryAfter: times out
    sim.run()
    sim.process(caller(2, None))  # no request id: a RetryAfter never matches
    sim.run()
    shed_as["request_id"] = "mine"
    sim.process(caller(3, "mine"))
    sim.run()
    assert got == [None, None, RetryAfter("mine", 7.5, server="server")]
    labels = {"node": "client", "method": "Ping", "peer": "server"}
    assert registry.get("rpc_retry_after", labels).value == 1
    assert registry.get("rpc_timeouts", labels).value == 2
