"""RpcEndpoint: typed dispatch, request/reply, dedupe, and gating."""

from dataclasses import dataclass

from repro.obs.registry import MetricsRegistry
from repro.rpc import RpcEndpoint
from repro.sim import ConstantLatency, Network, Simulation


@dataclass
class Query:
    query_id: str
    reply_to: str
    boom: bool = False

    def size(self) -> int:
        return 32


@dataclass
class Answer:
    query_id: str
    ok: bool = True
    error: str = ""

    def size(self) -> int:
        return 32


@dataclass
class Other:
    def size(self) -> int:
        return 8


def build(registry=None, **endpoint_kwargs):
    sim = Simulation(seed=1)
    net = Network(sim, latency=ConstantLatency(1.0))
    endpoint = RpcEndpoint(sim, net, "server", registry=registry, **endpoint_kwargs)
    net.add_host("client")
    return sim, net, endpoint


def collect_client(sim, net, into):
    def pump():
        while True:
            message = yield net.host("client").recv()
            into.append(message.payload)

    sim.process(pump())


def test_typed_dispatch_inline_and_spawned():
    sim, net, endpoint = build()
    inline, spawned = [], []
    endpoint.on(Query, lambda q: inline.append(q.query_id))

    def handle_other(message):
        yield sim.timeout(1.0)
        spawned.append(sim.now)

    endpoint.on(Other, handle_other, spawn="bg")
    endpoint.start()
    net.send("client", "server", Query("q1", "client"), size_bytes=32)
    net.send("client", "server", Other(), size_bytes=8)
    sim.run()
    assert inline == ["q1"]
    assert len(spawned) == 1  # ran as its own process, 1.0 ms after delivery


def test_duplicate_registration_rejected():
    _sim, _net, endpoint = build()
    endpoint.on(Query, lambda q: None)
    try:
        endpoint.on(Query, lambda q: None)
    except ValueError as error:
        assert "duplicate handler" in str(error)
    else:
        raise AssertionError("second on(Query) must raise")


def test_on_rpc_sends_reply_and_survives_raising_handler():
    sim, net, endpoint = build()

    def handle(query):
        if query.boom:
            raise RuntimeError("kaboom")
        return Answer(query.query_id)

    endpoint.on_rpc(Query, handle, reply_to=lambda q: q.reply_to)
    endpoint.start()
    got = []
    collect_client(sim, net, got)
    net.send("client", "server", Query("bad", "client", boom=True), size_bytes=32)
    net.send("client", "server", Query("good", "client"), size_bytes=32)
    sim.run(until=50.0)
    # The raising handler's request was dropped; the serve loop survived
    # it and answered the next one.
    assert got == [Answer("good")]


def test_on_rpc_without_error_factory_drops_silently():
    sim, net, endpoint = build()

    def handle(query):
        raise RuntimeError("kaboom")

    endpoint.on_rpc(Query, handle, reply_to=lambda q: q.reply_to)
    endpoint.start()
    got = []
    collect_client(sim, net, got)
    net.send("client", "server", Query("q", "client", boom=True), size_bytes=32)
    sim.run(until=50.0)
    assert got == []


def test_default_handler_and_unhandled_counter():
    registry = MetricsRegistry()
    sim, net, endpoint = build(registry=registry)
    consumed = []

    def default(payload):
        if isinstance(payload, Other):
            consumed.append(payload)
            return True
        return False

    endpoint.on_default(default)
    endpoint.start()
    net.send("client", "server", Other(), size_bytes=8)
    net.send("client", "server", Query("q", "client"), size_bytes=32)  # nobody takes it
    sim.run(until=50.0)
    assert len(consumed) == 1
    assert registry.get("rpc_unhandled", {"node": "server"}).value == 1


def test_gate_drops_messages_while_crashed():
    state = {"crashed": True}
    sim, net, endpoint = build(gate=lambda: state["crashed"])
    seen = []
    endpoint.on(Query, lambda q: seen.append(q.query_id))
    endpoint.start()
    net.send("client", "server", Query("while-down", "client"), size_bytes=32)
    sim.run(until=10.0)
    assert seen == []
    state["crashed"] = False
    net.send("client", "server", Query("while-up", "client"), size_bytes=32)
    sim.run(until=20.0)
    assert seen == ["while-up"]


def test_dedupe_table_and_gauges():
    registry = MetricsRegistry()
    sim, net, endpoint = build(registry=registry, dedupe_cap=2)
    executions = []

    def handle(query):
        cached = endpoint.dedupe.lookup(query.query_id)
        if cached is not None:
            endpoint.send(query.reply_to, cached)
            return
        executions.append(query.query_id)
        answer = Answer(query.query_id)
        endpoint.dedupe.record(query.query_id, answer)
        endpoint.send(query.reply_to, answer)

    endpoint.on(Query, handle)
    endpoint.start()
    got = []
    collect_client(sim, net, got)
    net.send("client", "server", Query("client#1", "client"), size_bytes=32)
    net.send("client", "server", Query("client#1", "client"), size_bytes=32)  # retry
    sim.run(until=50.0)
    # At-most-once: two replies, one execution.
    assert got == [Answer("client#1"), Answer("client#1")]
    assert executions == ["client#1"]
    labels = {"node": "server"}
    assert registry.get("dedupe_entries", labels).value == 1
    assert registry.get("dedupe_evictions", labels).value == 0
    # Overflow the cap with non-conforming ids: the LRU backstop evicts.
    for request_id in ("x", "y", "z"):
        endpoint.dedupe.record(request_id, Answer(request_id))
    assert registry.get("dedupe_entries", labels).value == 2
    assert registry.get("dedupe_evictions", labels).value >= 1


def test_auto_instrumentation_counts_in_and_out():
    registry = MetricsRegistry()
    sim, net, endpoint = build(registry=registry)
    endpoint.on_rpc(Query, lambda q: Answer(q.query_id), reply_to=lambda q: q.reply_to)
    endpoint.start()
    got = []
    collect_client(sim, net, got)
    for n in range(3):
        net.send("client", "server", Query(f"q{n}", "client"), size_bytes=32)
    sim.run(until=50.0)
    assert len(got) == 3
    in_counter = registry.get(
        "rpc_messages_in", {"node": "server", "method": "Query", "peer": "client"}
    )
    out_counter = registry.get(
        "rpc_messages_out", {"node": "server", "method": "Answer", "peer": "client"}
    )
    assert in_counter.value == 3
    assert out_counter.value == 3
