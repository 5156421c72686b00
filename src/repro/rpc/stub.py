"""Client-side RPC: request/reply correlation with deadlines and retries.

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

Every :meth:`call` automatically records per-RPC counters (calls,
retries, timeouts — labelled by method and peer) and
opens a ``SpanTracer`` span when tracing is enabled.  Neither touches
the event queue, so observability is determinism-free overhead only.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.rpc.policy import RetryAfter, RetryPolicy

_SINGLE_ATTEMPT = RetryPolicy(1)


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
        Per-attempt reply deadline of every call, and of an await that
        passes none.
    discard_unmatched:
        Drop mailbox payloads no predicate matched on each scan.  Correct
        for strictly-sequential callers (every unmatched payload is a
        stale reply to an abandoned attempt); must stay off when several
        exchanges interleave on one stub (migration).
    registry / labels:
        Metrics destination; instruments are labelled ``{**labels,
        method, peer}``.  ``None`` disables metrics entirely.
    tracer_fn:
        Zero-arg callable returning the active ``SpanTracer`` or ``None``
        (platforms attach tracers after construction, so the stub must
        re-resolve at call time).
    rng:
        Random stream for retry-policy jitter.
    """

    #: floor applied to the *second and later* consecutive zero-delay
    #: retries that consumed no simulated time.  A policy returning
    #: ``delay_ms == 0`` against a zero-latency rejector would otherwise
    #: hot-loop its entire attempt budget at one simulated instant,
    #: starving the now-lane; one immediate retry stays free so
    #: leader-hint chasing and the migration retry loop are undisturbed.
    MIN_BACKOFF_FLOOR_MS = 0.05

    def __init__(
        self,
        sim: Any,
        net: Any,
        name: str,
        *,
        host: Optional[Any] = None,
        default_deadline_ms: float = 1_000.0,
        discard_unmatched: bool = False,
        registry: Optional[Any] = None,
        labels: Optional[dict] = None,
        tracer_fn: Optional[Callable[[], Any]] = None,
        rng: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.name = name
        self.host = host if host is not None else net.add_host(name)
        self.default_deadline_ms = default_deadline_ms
        self._discard_unmatched = discard_unmatched
        self._registry = registry
        self._labels = dict(labels) if labels else {"node": name}
        self._tracer_fn = tracer_fn
        self._rng = rng
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

    def await_message(self, predicate: Callable[[Any], bool], deadline_ms: Optional[float] = None):
        """Simulation process: the first mailbox payload matching
        ``predicate``, or ``None`` once the deadline passes.

        A waiter that wakes by timeout removes itself from the waiter
        list — the stale-signal fix: the next message then wakes only
        live waiters instead of succeeding a consumed event.
        """
        deadline = self.sim.now + (
            self.default_deadline_ms if deadline_ms is None else deadline_ms
        )
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
                self._registry, {**self._labels, "method": method, "peer": peer}
            )
            self._handles[key] = handles
        return handles

    def send(
        self,
        target: str,
        payload: Any,
        *,
        method: Optional[str] = None,
        size_bytes: Optional[int] = None,
    ) -> None:
        """One-way send (no reply correlation), with out-metrics."""
        handles = self._handles_for(method or type(payload).__name__, target)
        if handles is not None:
            handles.sent.inc()
        self.net.send(
            self.name,
            target,
            payload,
            size_bytes=payload.size() if size_bytes is None else size_bytes,
        )

    def call(
        self,
        target: Any,
        payload: Any,
        predicate: Callable[[Any], bool],
        *,
        retry: Optional[RetryPolicy] = None,
        should_retry: Optional[Callable[[Any], bool]] = None,
        on_retry: Optional[Callable[[int, Any], Any]] = None,
        method: Optional[str] = None,
        request_id: Optional[str] = None,
    ):
        """Simulation process: request/reply with deadline + retry.

        ``target`` and ``payload`` may be callables of the attempt index,
        so routing decisions (and payload fields like the client's
        current epoch) are re-resolved per attempt in the caller's
        historical order — including any routing rng draw.

        Per attempt: resolve target/payload, send, await ``predicate``
        for the default deadline.  A ``None`` reply (deadline) always
        retries; a received reply retries only when
        ``should_retry(reply)`` says so.  Between attempts
        ``on_retry(attempt, reply)`` runs first (it may return a
        generator, e.g. a config refresh, which is driven to completion),
        then the policy's delay — a zero delay schedules no timeout
        event, except that consecutive zero-delay retries of zero-time
        attempts are floored at :attr:`MIN_BACKOFF_FLOOR_MS` after the
        first (now-lane starvation guard).  Returns the last reply, or
        ``None`` when every attempt timed out.  Callers classify the
        result; the stub never raises on exhaustion.

        ``request_id`` keys the call's span and escalations, and opts it
        into server-advised backoff: the predicate also matches a
        :class:`RetryAfter` carrying that id, and such a reply always
        retries after the *server's* ``retry_after_ms`` instead of the
        policy's delay (the server knows when its admission gate clears;
        the policy is guessing).  On exhaustion the ``RetryAfter``
        itself is returned so callers can classify it as overload.
        """
        policy = retry if retry is not None else _SINGLE_ATTEMPT
        tracer = self._tracer_fn() if self._tracer_fn is not None else None
        if request_id is not None:
            match = predicate

            def predicate(p, _rid=request_id, _match=match):  # noqa: F811
                return (
                    type(p) is RetryAfter and p.request_id == _rid
                ) or _match(p)

        span = None
        reply = None
        immediate_retries = 0
        try:
            for attempt in range(policy.max_attempts):
                dst = target(attempt) if callable(target) else target
                message = payload(attempt) if callable(payload) else payload
                name = method if method is not None else type(message).__name__
                handles = self._handles_for(name, dst)
                if attempt == 0:
                    if tracer is not None:
                        span = tracer.start(
                            "rpc.call",
                            trace_id=request_id,
                            node=self.name,
                            method=name,
                            peer=dst,
                        )
                    if handles is not None:
                        handles.calls.inc()
                else:
                    if handles is not None:
                        handles.retries.inc()
                    if tracer is not None and request_id is not None:
                        # retries and timeouts stay visible under sampling
                        tracer.escalate(
                            request_id, reason="rpc.retry", node=self.name
                        )
                attempt_started = self.sim.now
                self.net.send(
                    self.name, dst, message, size_bytes=message.size()
                )
                reply = yield from self.await_message(predicate)
                advised = None
                if reply is None:
                    if handles is not None:
                        handles.timeouts.inc()
                    if tracer is not None and request_id is not None:
                        tracer.escalate(
                            request_id, reason="rpc.timeout", node=self.name
                        )
                elif type(reply) is RetryAfter:
                    # An admission gate shed the request: always
                    # retryable, and the server said exactly when.
                    advised = max(0.0, reply.retry_after_ms)
                    if handles is not None:
                        handles.retry_after.inc()
                elif should_retry is None or not should_retry(reply):
                    return reply
                if attempt + 1 >= policy.max_attempts:
                    return reply
                if on_retry is not None:
                    step = on_retry(attempt, reply)
                    if step is not None:
                        yield from step
                if advised is not None:
                    delay = advised
                else:
                    delay = policy.delay_ms(attempt, self._rng)
                if delay <= 0 and self.sim.now <= attempt_started:
                    immediate_retries += 1
                    if immediate_retries > 1:
                        delay = self.MIN_BACKOFF_FLOOR_MS
                else:
                    immediate_retries = 0
                if delay > 0:
                    yield self.sim.timeout(delay)
            return reply
        finally:
            if span is not None:
                tracer.end(
                    span, status="ok" if reply is not None else "timeout"
                )
