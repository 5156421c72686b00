"""Server-side RPC: typed message dispatch over one network host.

An :class:`RpcEndpoint` owns the host, the receive pump, and a handler
table keyed by exact message type — the replacement for the hand-rolled
``while True: isinstance(...)`` serve loops every node used to carry.
Dispatch by ``type(payload)`` is scheduling-identical to an isinstance
chain over disjoint final message classes: the same handler runs at the
same simulated instant, and spawned handlers become processes exactly
where the old loops spawned them.

The endpoint also hosts the two cross-cutting server concerns:

- **at-most-once dedupe** — an optional :class:`CompletedRequestTable`
  (``dedupe_cap``) with its occupancy and LRU-eviction pressure exported
  as per-node ``dedupe_entries`` / ``dedupe_evictions`` gauges;
- **auto-instrumentation** — per ``(message type, peer)`` in/out
  counters, so every message in the system shows up in ``--metrics-out``
  without any per-site code.

Specialized streams (the group-commit :class:`ReplicationPipeline`)
keep their own framing but ship frames through :meth:`send`, so their
traffic is counted like everything else.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.rpc.dedupe import CompletedRequestTable


class RpcEndpoint:
    """One node's typed message dispatcher."""

    def __init__(
        self,
        sim: Any,
        net: Any,
        name: str,
        *,
        registry: Optional[Any] = None,
        gate: Optional[Callable[[], bool]] = None,
        dedupe_cap: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.name = name
        self.host = net.add_host(name)
        #: message type -> (handler, process name or None)
        self._handlers: dict[type, tuple[Callable[[Any], Any], Optional[str]]] = {}
        self._default: Optional[Callable[[Any], bool]] = None
        self._gate = gate
        self._registry = registry
        self._labels = {"node": name}
        self._in_counters: dict[tuple[type, str], Any] = {}
        self._out_counters: dict[tuple[str, str], Any] = {}
        self._unhandled = (
            registry.counter(
                "rpc_unhandled",
                self._labels,
                help="messages no handler or extension accepted",
            )
            if registry is not None
            else None
        )
        self.dedupe: Optional[CompletedRequestTable] = None
        if dedupe_cap is not None:
            self.dedupe = CompletedRequestTable(dedupe_cap)
            if registry is not None:
                table = self.dedupe
                registry.gauge(
                    "dedupe_entries",
                    self._labels,
                    fn=lambda: len(table),
                    help="at-most-once replies currently retained",
                )
                registry.gauge(
                    "dedupe_evictions",
                    self._labels,
                    fn=lambda: table.evictions,
                    help="entries dropped by the LRU backstop (memory pressure)",
                )

    # -- registration ------------------------------------------------------

    def on(
        self,
        message_type: type,
        handler: Callable[[Any], Any],
        *,
        spawn: Optional[str] = None,
    ) -> None:
        """Dispatch ``message_type`` payloads to ``handler``.

        With ``spawn``, the handler is a generator run as its own process
        named ``{endpoint}.{spawn}``; otherwise it is called inline on
        the serve loop (it must not yield).
        """
        if message_type in self._handlers:
            raise ValueError(f"{self.name}: duplicate handler for {message_type.__name__}")
        process_name = f"{self.name}.{spawn}" if spawn is not None else None
        self._handlers[message_type] = (handler, process_name)

    def on_default(self, handler: Callable[[Any], bool]) -> None:
        """Fallback for unregistered types (e.g. a Paxos sub-protocol);
        returns whether it consumed the message."""
        self._default = handler

    def on_rpc(
        self,
        message_type: type,
        handler: Callable[[Any], Any],
        *,
        reply_to: Callable[[Any], str],
    ) -> None:
        """Request/reply convenience: ``handler(message)`` returns the
        reply payload (or ``None`` for no reply), sent to
        ``reply_to(message)``.  A raising handler drops the request
        instead of killing the serve loop."""

        def wrapped(message: Any) -> None:
            try:
                reply = handler(message)
            except Exception:  # noqa: BLE001 - the request is dropped
                return
            if reply is not None:
                self.send(reply_to(message), reply)

        self.on(message_type, wrapped)

    # -- serving -----------------------------------------------------------

    def start(self) -> None:
        self.sim.process(self._serve(), name=f"{self.name}.serve")

    def _serve(self):
        recv = self.host.recv
        gate = self._gate
        handlers = self._handlers
        sim = self.sim
        while True:
            message = yield recv()
            if gate is not None and gate():
                continue
            payload = message.payload
            if self._registry is not None:
                self._count_in(type(payload), message.src)
            entry = handlers.get(type(payload))
            if entry is None:
                if self._default is None or not self._default(payload):
                    if self._unhandled is not None:
                        self._unhandled.inc()
                continue
            handler, process_name = entry
            if process_name is not None:
                sim.process(handler(payload), name=process_name)
            else:
                handler(payload)

    # -- metrics -----------------------------------------------------------

    def _count_in(self, message_type: type, src: str) -> None:
        counter = self._in_counters.get((message_type, src))
        if counter is None:
            counter = self._registry.counter(
                "rpc_messages_in",
                {**self._labels, "method": message_type.__name__, "peer": src},
                help="messages received, by type and sender",
            )
            self._in_counters[(message_type, src)] = counter
        counter.inc()

    # -- sending -----------------------------------------------------------

    def send(
        self, target: str, payload: Any, *, size_bytes: Optional[int] = None
    ) -> None:
        """Send with out-metrics; sizes default to ``payload.size()``."""
        if self._registry is not None:
            name = type(payload).__name__
            counter = self._out_counters.get((name, target))
            if counter is None:
                counter = self._registry.counter(
                    "rpc_messages_out",
                    {**self._labels, "method": name, "peer": target},
                    help="messages sent, by type and destination",
                )
                self._out_counters[(name, target)] = counter
            counter.inc()
        self.net.send(
            self.name,
            target,
            payload,
            size_bytes=payload.size() if size_bytes is None else size_bytes,
        )

    def set_piggyback_provider(
        self, provider: Optional[Callable[[str], Optional[list]]]
    ) -> None:
        """Register this node's egress piggyback provider with the
        transport (see :meth:`Network.set_piggyback_provider`): called
        per outbound coalesced wire message, it may return extra
        ``(payload, size_bytes)`` frames to attach — e.g. deferred
        replication acks riding reverse-direction traffic.  Frames
        injected this way bypass the per-type out-counters; the
        network-level ``frames_sent`` counter still sees them."""
        self.net.set_piggyback_provider(self.name, provider)
