"""Client-side RPC: request/reply correlation with deadlines.

An :class:`RpcStub` owns one network host and one mailbox pump.  Every
reply-consuming endpoint in the system (cluster clients, the migration
orchestrator, the serverless client) drives its request/reply traffic
through a stub instead of hand-rolling the pump/scan/await machinery each
used to carry.

The await loop is scheduling-identical to the historical hand-rolled
pattern — scan the mailbox, optionally discard unmatched payloads, then
park on the signal or the remaining deadline (``sim.wait``, which retires
the deadline timer once the signal has won) — with one deliberate
fix: waiters are kept in a *list* that each waiter leaves on a timeout
wake.  The old single-``_mail_signal`` slot left a consumed event behind
after a timeout, so a message arriving before the next await was missed
until the following poll (and concurrent awaiters silently overwrote
each other's signal).  On the signal path the two shapes schedule the
exact same events, so fault-free fixed-seed runs are byte-identical.

:meth:`RpcStub.call` makes one attempt.  A caller that retries owns its
loop: ``with stub.open(method, request_id) as call:``, then one
:meth:`RpcCall.attempt` per try, with the route, payload and delay its
own.  Either way the stub counts calls, retries, timeouts and
server-advised backoffs by method and peer, and records one ``rpc.call``
span per logical call when tracing is on; neither touches the event
queue, so observability is determinism-free overhead only.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.rpc.policy import RetryAfter


class _MethodHandles:
    """Preresolved instruments for one ``(method, peer)`` pair."""

    __slots__ = ("calls", "retries", "timeouts", "sent", "retry_after")

    def __init__(self, registry, labels: dict) -> None:
        self.calls = registry.counter(
            "rpc_calls", labels, help="stub calls issued (first attempts)"
        )
        self.retries = registry.counter(
            "rpc_retries", labels, help="additional attempts after the first"
        )
        self.timeouts = registry.counter(
            "rpc_timeouts", labels, help="attempts that hit their deadline"
        )
        self.sent = registry.counter(
            "rpc_messages_out", labels, help="messages sent through this stub"
        )
        self.retry_after = registry.counter(
            "rpc_retry_after", labels, help="server-advised backoff replies"
        )


class RpcStub:
    """Typed request/reply endpoint over :class:`repro.sim.network.Network`.

    Parameters
    ----------
    default_deadline_ms:
        Reply deadline of every attempt and every await.
    discard_unmatched:
        Drop mailbox payloads no predicate matched on each scan.  Correct
        for strictly-sequential callers (every unmatched payload is a
        stale reply to an abandoned attempt); must stay off when several
        exchanges interleave on one stub (migration).
    registry:
        Metrics destination; instruments are labelled ``{node, method,
        peer}``.  ``None`` disables metrics entirely.
    tracer_fn:
        Zero-arg callable returning the active ``SpanTracer`` or ``None``
        (platforms attach tracers after construction, so the stub must
        re-resolve at call time).
    """

    def __init__(
        self,
        sim: Any,
        net: Any,
        name: str,
        *,
        default_deadline_ms: float = 1_000.0,
        discard_unmatched: bool = False,
        registry: Optional[Any] = None,
        tracer_fn: Optional[Callable[[], Any]] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.name = name
        self.host = net.add_host(name)
        self.default_deadline_ms = default_deadline_ms
        self._discard_unmatched = discard_unmatched
        self._registry = registry
        self._tracer_fn = tracer_fn
        self._mail: list[Any] = []
        self._waiters: list[Any] = []
        self._handles: dict[tuple[str, str], _MethodHandles] = {}
        sim.process(self._pump(), name=f"{name}.pump")

    # -- mailbox -----------------------------------------------------------

    def _pump(self):
        """Move inbox messages into the scannable mailbox and wake every
        parked waiter (so abandoned waits never strand messages inside
        half-consumed inbox gets)."""
        while True:
            message = yield self.host.recv()
            self._mail.append(message.payload)
            if self._waiters:
                waiters, self._waiters = self._waiters, []
                for waiter in waiters:
                    if not waiter.triggered:
                        waiter.succeed()

    def await_message(self, predicate: Callable[[Any], bool]):
        """Simulation process: the first mailbox payload matching
        ``predicate``, or ``None`` once the stub's deadline passes.

        A waiter that wakes by timeout removes itself from the waiter
        list — the stale-signal fix: the next message then wakes only
        live waiters instead of succeeding a consumed event.
        """
        deadline = self.sim.now + self.default_deadline_ms
        while True:
            for index, payload in enumerate(self._mail):
                if predicate(payload):
                    del self._mail[index]
                    return payload
            if self._discard_unmatched:
                self._mail.clear()
            remaining = deadline - self.sim.now
            if remaining <= 0:
                return None
            signal = self.sim.event()
            self._waiters.append(signal)
            try:
                yield from self.sim.wait(signal, remaining)
            finally:
                if not signal.triggered and signal in self._waiters:
                    self._waiters.remove(signal)

    # -- sending -----------------------------------------------------------

    def _handles_for(self, method: str, peer: str) -> Optional[_MethodHandles]:
        if self._registry is None:
            return None
        key = (method, peer)
        handles = self._handles.get(key)
        if handles is None:
            handles = _MethodHandles(
                self._registry, {"node": self.name, "method": method, "peer": peer}
            )
            self._handles[key] = handles
        return handles

    def send(self, target: str, payload: Any) -> None:
        """One-way send (no reply correlation), with out-metrics."""
        handles = self._handles_for(type(payload).__name__, target)
        if handles is not None:
            handles.sent.inc()
        self.net.send(self.name, target, payload, size_bytes=payload.size())

    def call(
        self,
        target: str,
        payload: Any,
        predicate: Callable[[Any], bool],
        *,
        method: Optional[str] = None,
        request_id: Optional[str] = None,
    ):
        """Simulation process: send ``payload`` to ``target`` once and
        return the first mailbox payload matching ``predicate``, or
        ``None`` at the deadline; callers classify the result.  ``method``
        labels metrics and span (default: the payload's type name).
        ``request_id`` keys the span and escalations and widens the
        predicate to a :class:`RetryAfter` carrying that id.
        """
        name = method if method is not None else type(payload).__name__
        handles = self._handles_for(name, target)
        if handles is not None:
            handles.calls.inc()
        tracer = self._tracer_fn() if self._tracer_fn is not None else None
        span = None
        if tracer is not None:
            span = tracer.start(
                "rpc.call", trace_id=request_id, node=self.name, method=name, peer=target
            )
        reply = None
        try:
            reply = yield from self._exchange(
                target, payload, predicate, handles, tracer, request_id
            )
            return reply
        finally:
            if span is not None:
                tracer.end(span, status="ok" if reply is not None else "timeout")

    def open(self, method: Optional[str] = None, request_id: Optional[str] = None) -> RpcCall:
        """A logical call for a caller that runs its own retry loop; use
        it as a context manager so its span ends with the call."""
        return RpcCall(self, method, request_id)

    def _exchange(self, target, payload, predicate, handles, tracer, request_id):
        """Send one attempt, await its reply, and count a timeout or a
        server-advised backoff."""
        if request_id is not None:
            match = predicate

            def predicate(p):  # noqa: F811
                return (type(p) is RetryAfter and p.request_id == request_id) or match(p)

        self.net.send(self.name, target, payload, size_bytes=payload.size())
        reply = yield from self.await_message(predicate)
        if reply is None:
            if handles is not None:
                handles.timeouts.inc()
            if tracer is not None and request_id is not None:
                tracer.escalate(request_id, reason="rpc.timeout", node=self.name)
        elif type(reply) is RetryAfter and handles is not None:
            handles.retry_after.inc()
        return reply


class RpcCall:
    """One logical call of one or more attempts (see :meth:`RpcStub.open`).

    The caller picks each attempt's target and payload, whether to try
    again and how long to wait; the call counts ``rpc_calls`` once,
    ``rpc_retries`` (and an ``rpc.retry`` escalation) per further attempt,
    and keeps one ``rpc.call`` span open until the ``with`` block exits.
    """

    __slots__ = ("_stub", "_method", "_request_id", "_tracer", "_span", "attempts", "reply")

    def __init__(self, stub: RpcStub, method: Optional[str], request_id: Optional[str]) -> None:
        self._stub = stub
        self._method = method
        self._request_id = request_id
        self._tracer = stub._tracer_fn() if stub._tracer_fn is not None else None
        self._span = None
        self.attempts = 0
        #: the last attempt's reply (``None`` after a timeout)
        self.reply: Any = None

    def __enter__(self) -> "RpcCall":
        return self

    def __exit__(self, *_exc: Any) -> None:
        if self._span is not None:
            self._tracer.end(self._span, status="ok" if self.reply is not None else "timeout")

    def attempt(self, target: str, payload: Any, predicate: Callable[[Any], bool]):
        """Simulation process: one attempt of the call, as
        :meth:`RpcStub.call` makes it."""
        stub = self._stub
        tracer = self._tracer
        request_id = self._request_id
        name = self._method if self._method is not None else type(payload).__name__
        handles = stub._handles_for(name, target)
        if self.attempts == 0:
            if handles is not None:
                handles.calls.inc()
            if tracer is not None:
                self._span = tracer.start(
                    "rpc.call", trace_id=request_id, node=stub.name, method=name, peer=target
                )
        else:
            if handles is not None:
                handles.retries.inc()
            if tracer is not None and request_id is not None:
                # retries and timeouts stay visible under sampling
                tracer.escalate(request_id, reason="rpc.retry", node=stub.name)
        self.attempts += 1
        self.reply = yield from stub._exchange(
            target, payload, predicate, handles, tracer, request_id
        )
        return self.reply
