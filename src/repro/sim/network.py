"""Message-passing network between simulated hosts.

The network delivers opaque payloads between named hosts after a sampled
latency plus a serialisation cost proportional to message size.  Failure
injection (message drops, partitions, host crashes) hooks in here so the
distributed protocols above can be tested under adversity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.core import Simulation
from repro.sim.events import Event
from repro.sim.resources import Store

#: the shared cluster network of both platforms (one rack, §5): shape and
#: cap of the log-normal one-way latency, and link bandwidth
NET_SIGMA = 0.3
NET_CAP_MS = 2.0
BANDWIDTH_MBPS = 10_000.0


class LatencyModel:
    """Samples one-way message latencies in milliseconds."""

    def sample(self, rng: Any) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Always the same latency; ideal for analytic sanity checks."""

    def __init__(self, latency_ms: float) -> None:
        if latency_ms < 0:
            raise SimulationError(f"latency must be >= 0, got {latency_ms}")
        self.latency_ms = latency_ms

    def sample(self, rng: Any) -> float:
        return self.latency_ms


class BimodalLatency(LatencyModel):
    """Mostly-fast latency with occasional slow outliers.

    With ``slow_probability`` well above zero this aggressively *reorders*
    consecutive messages on the same link (a slow message sent first
    arrives after a fast message sent later), which is exactly the
    adversity the in-order replication appliers must absorb.  The chaos
    tests use it to exercise the out-of-order buffering paths.
    """

    def __init__(
        self, fast_ms: float = 0.05, slow_ms: float = 2.0, slow_probability: float = 0.25
    ) -> None:
        if not 0 <= fast_ms <= slow_ms:
            raise SimulationError(f"bad bimodal latency range [{fast_ms}, {slow_ms}]")
        if not 0 <= slow_probability <= 1:
            raise SimulationError(f"bad slow probability {slow_probability}")
        self.fast_ms = fast_ms
        self.slow_ms = slow_ms
        self.slow_probability = slow_probability

    def sample(self, rng: Any) -> float:
        if rng.random() < self.slow_probability:
            return self.slow_ms
        return self.fast_ms


class LogNormalLatency(LatencyModel):
    """Log-normally distributed latency — a heavy-ish tail like real LANs.

    Parameterised by the median and a shape ``sigma``; an optional cap
    bounds pathological samples.
    """

    def __init__(self, median_ms: float, sigma: float = 0.25, cap_ms: Optional[float] = None) -> None:
        import math

        if median_ms <= 0:
            raise SimulationError(f"median latency must be > 0, got {median_ms}")
        self._mu = math.log(median_ms)
        self._sigma = sigma
        self._cap = cap_ms

    def sample(self, rng: Any) -> float:
        value = rng.lognormvariate(self._mu, self._sigma)
        if self._cap is not None:
            value = min(value, self._cap)
        return value


@dataclass(slots=True)
class Message:
    """An in-flight network message."""

    src: str
    dst: str
    payload: Any
    size_bytes: int = 0
    sent_at: float = 0.0


@dataclass
class NetworkStats:
    """Counters the benchmarks read after a run.

    ``messages_*`` count **wire messages** — what actually crosses a
    link.  ``frames_sent`` counts logical payloads handed to
    :meth:`Network.send`; without egress coalescing the two are equal,
    with it one wire message may carry several frames.  ``bytes_sent``
    is charged at send time (a message dropped at send still counts —
    the sender serialized it); ``bytes_delivered`` counts only bytes
    that reached an inbox, so ``bytes_sent - bytes_delivered`` is the
    on-wire loss.

    Per-link accounting is maintained only while fault injection is
    active (the fault-free fast path skips it): ``per_link`` counts
    messages that passed the send-time drop decision on each link,
    ``per_link_dropped`` counts drops — send-time and delivery-time —
    per link.  A message dropped at delivery appears in both.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    frames_sent: int = 0
    bytes_sent: int = 0
    bytes_delivered: int = 0
    per_link: dict = field(default_factory=dict)
    per_link_dropped: dict = field(default_factory=dict)


class NetworkHost:
    """A named endpoint with an inbox mailbox."""

    __slots__ = ("sim", "name", "inbox", "crashed")

    def __init__(self, sim: Simulation, name: str) -> None:
        self.sim = sim
        self.name = name
        self.inbox: Store = Store(sim)
        self.crashed = False

    def recv(self) -> Event:
        """Event yielding the next inbound :class:`Message`."""
        return self.inbox.get()


class _Delivery:
    """One scheduled delivery: a slotted callable instead of a per-send
    closure (no function object + captured cells per message)."""

    __slots__ = ("net", "message", "dst_host")

    def __init__(self, net: "Network", message: Message, dst_host: NetworkHost) -> None:
        self.net = net
        self.message = message
        self.dst_host = dst_host

    @property
    def mc_label(self) -> tuple:
        """Stable choice-point label for the model checker's scheduler
        policy: ``("deliver", src, dst, payload kind)``.  A property so
        the fault-free send path pays nothing for it."""
        message = self.message
        return ("deliver", message.src, message.dst, type(message.payload).__name__)

    def __call__(self) -> None:
        net = self.net
        message = self.message
        dst_host = self.dst_host
        if net._faults_active and net._dropped_in_flight(
            message.src, message.dst, dst_host
        ):
            return
        stats = net.stats
        stats.messages_delivered += 1
        stats.bytes_delivered += message.size_bytes
        dst_host.inbox.put(message)


class _BatchDelivery:
    """One scheduled delivery of a coalesced wire message: every frame
    packed into it arrives at one instant, in send order, or none do —
    a wire message drops atomically."""

    __slots__ = ("net", "messages", "dst_host", "size_bytes")

    def __init__(
        self,
        net: "Network",
        messages: list[Message],
        dst_host: NetworkHost,
        size_bytes: int,
    ) -> None:
        self.net = net
        self.messages = messages
        self.dst_host = dst_host
        self.size_bytes = size_bytes

    @property
    def mc_label(self) -> tuple:
        """Choice-point label for a coalesced wire message: the sorted
        set of frame payload kinds it carries."""
        messages = self.messages
        kinds = ",".join(sorted({type(m.payload).__name__ for m in messages}))
        return ("deliver", messages[0].src, messages[0].dst, kinds)

    def __call__(self) -> None:
        net = self.net
        messages = self.messages
        dst_host = self.dst_host
        if net._faults_active and net._dropped_in_flight(
            messages[0].src, messages[0].dst, dst_host
        ):
            return
        stats = net.stats
        stats.messages_delivered += 1
        stats.bytes_delivered += self.size_bytes
        put = dst_host.inbox.put
        for message in messages:
            put(message)


class Network:
    """Connects hosts, applying latency, bandwidth, and failure injection."""

    def __init__(
        self,
        sim: Simulation,
        latency: LatencyModel | None = None,
        bandwidth_mbps: float = BANDWIDTH_MBPS,
        rng_name: str = "network",
    ) -> None:
        self.sim = sim
        self.latency = latency or ConstantLatency(0.05)  # property: binds _sample
        #: bytes transferred per millisecond
        self._bytes_per_ms = bandwidth_mbps * 1e6 / 8 / 1000
        self._rng = sim.rng(rng_name)
        self._hosts: dict[str, NetworkHost] = {}
        self.stats = NetworkStats()
        self._drop_probability = 0.0
        self._drop_filter: Optional[Callable[[Message], bool]] = None
        #: pairs (src, dst) that cannot communicate (directional)
        self._partitions: set[tuple[str, str]] = set()
        #: optional tap invoked for each sent message (tracing).  The tap
        #: fires *before* the drop decision, so it sees dropped messages
        #: too — traces observe attempted sends, not deliveries.
        self.tap: Optional[Callable[[Message], None]] = None
        #: True while any fault injection is configured; ``send`` skips the
        #: drop checks entirely when clear.  Every fault setter refreshes it.
        self._faults_active = False
        #: egress coalescing (off by default; the classic one-message-per-
        #: send path is byte-identical while disabled)
        self._coalescing = False
        self._coalesce_window = 0.0
        #: (src, dst) -> frames queued for the next wire message, in send
        #: order; insertion order is the deterministic flush order
        self._egress: dict[tuple[str, str], list[Message]] = {}
        #: one armed flush callback covers every link with queued egress
        self._flush_armed = False
        #: src -> provider called at flush time per outbound wire message;
        #: returns extra ``(payload, size_bytes)`` frames to piggyback
        self._piggyback: dict[str, Callable[[str], Optional[list]]] = {}

    # -- latency model ------------------------------------------------------

    @property
    def latency(self) -> LatencyModel:
        """The installed latency model; assigning rebinds the per-message
        draw fast path (:attr:`_sample` / :attr:`_const_latency_ms`)."""
        return self._latency

    @latency.setter
    def latency(self, model: LatencyModel) -> None:
        self._latency = model
        # Hot-path hoists: ``send`` draws via the pre-bound sample method
        # (one attribute hop instead of two), and a ConstantLatency model
        # skips the method call entirely.
        self._sample = model.sample
        self._const_latency_ms = (
            model.latency_ms if type(model) is ConstantLatency else None
        )

    # -- egress coalescing --------------------------------------------------

    def enable_coalescing(self, window_ms: float = 0.0) -> None:
        """Turn on egress coalescing: frames sent to the same destination
        within the coalesce window (the same simulated instant when
        ``window_ms`` is 0) are packed into one wire message with one
        latency draw, one serialisation cost for the summed bytes, and
        one delivery event.  Loopback traffic bypasses coalescing."""
        if window_ms < 0:
            raise SimulationError(f"coalesce window must be >= 0, got {window_ms}")
        self._coalescing = True
        self._coalesce_window = window_ms

    def set_piggyback_provider(
        self, src: str, provider: Optional[Callable[[str], Optional[list]]]
    ) -> None:
        """Register ``provider(dst)`` for ``src``: called once per
        outbound wire message at flush time, it may return extra
        ``(payload, size_bytes)`` frames to append (e.g. deferred
        replication acks riding on reverse-direction traffic).  Only
        consulted while coalescing is enabled."""
        if provider is None:
            self._piggyback.pop(src, None)
        else:
            self._piggyback[src] = provider

    def _flush_egress(self) -> None:
        """Pack and ship every queued egress link (one wire message per
        (src, dst)): one drop decision, one latency draw, one delivery."""
        self._flush_armed = False
        egress, self._egress = self._egress, {}
        stats = self.stats
        piggyback = self._piggyback
        for (src, dst), frames in egress.items():
            provider = piggyback.get(src)
            if provider is not None:
                extra = provider(dst)
                if extra:
                    now = self.sim.now
                    for payload, size_bytes in extra:
                        message = Message(src, dst, payload, size_bytes, sent_at=now)
                        stats.frames_sent += 1
                        stats.bytes_sent += size_bytes
                        if self.tap is not None:
                            self.tap(message)
                        frames.append(message)
            total_bytes = 0
            for message in frames:
                total_bytes += message.size_bytes
            stats.messages_sent += 1
            # One atomic drop decision per wire message: the whole batch
            # drops or the whole batch flies.
            if self._faults_active and self._dropped_at_send(src, dst, frames):
                continue
            const = self._const_latency_ms
            delay = (
                const if const is not None else self._sample(self._rng)
            ) + total_bytes / self._bytes_per_ms
            dst_host = self._hosts[dst]
            if len(frames) == 1:
                self.sim._schedule(delay, _Delivery(self, frames[0], dst_host))
            else:
                self.sim._schedule(
                    delay, _BatchDelivery(self, frames, dst_host, total_bytes)
                )

    def _dropped_at_send(self, src: str, dst: str, frames) -> bool:
        """The send-time drop decision for one wire message, made only
        while faults are active: a crashed sender, a cut link, the global
        drop probability (one RNG draw, only when set) or the drop filter
        on any frame.  Counts the drop, or the pass, on the link."""
        stats = self.stats
        link = (src, dst)
        drop_filter = self._drop_filter
        if (
            self._hosts[src].crashed
            or link in self._partitions
            or (self._drop_probability > 0 and self._rng.random() < self._drop_probability)
            or (drop_filter is not None and any(drop_filter(m) for m in frames))
        ):
            stats.messages_dropped += 1
            stats.per_link_dropped[link] = stats.per_link_dropped.get(link, 0) + 1
            return True
        stats.per_link[link] = stats.per_link.get(link, 0) + 1
        return False

    def _dropped_in_flight(self, src: str, dst: str, dst_host: NetworkHost) -> bool:
        """The delivery-time drop decision, made only while faults are
        active (they may have started while the wire message flew): a
        crashed destination or a cut link drops it, counted on the link."""
        link = (src, dst)
        if dst_host.crashed or link in self._partitions:
            stats = self.stats
            stats.messages_dropped += 1
            stats.per_link_dropped[link] = stats.per_link_dropped.get(link, 0) + 1
            return True
        return False

    def _refresh_faults(self) -> None:
        self._faults_active = bool(
            self._drop_probability > 0
            or self._drop_filter is not None
            or self._partitions
            or any(host.crashed for host in self._hosts.values())
        )

    @property
    def drop_probability(self) -> float:
        """Probability a message is silently dropped (failure injection)."""
        return self._drop_probability

    @drop_probability.setter
    def drop_probability(self, probability: float) -> None:
        self._drop_probability = probability
        self._refresh_faults()

    @property
    def drop_filter(self) -> Optional[Callable[[Message], bool]]:
        """Optional predicate: return True to drop a specific message
        (targeted fault scripting, e.g. "drop the first ReplicateWritesRange")."""
        return self._drop_filter

    @drop_filter.setter
    def drop_filter(self, fn: Optional[Callable[[Message], bool]]) -> None:
        self._drop_filter = fn
        self._refresh_faults()

    # -- membership -------------------------------------------------------

    def add_host(self, name: str) -> NetworkHost:
        """Register a new host; names are unique."""
        if name in self._hosts:
            raise SimulationError(f"duplicate host name {name!r}")
        host = NetworkHost(self.sim, name)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> NetworkHost:
        """Look up a registered host by name."""
        try:
            return self._hosts[name]
        except KeyError:
            raise SimulationError(f"unknown host {name!r}") from None

    def hosts(self) -> list[str]:
        """All registered host names."""
        return list(self._hosts)

    # -- failure injection --------------------------------------------------

    def set_drop_probability(self, probability: float) -> None:
        """Set the global message-drop probability (fault scripting)."""
        if not 0 <= probability <= 1:
            raise SimulationError(f"drop probability must be in [0, 1], got {probability}")
        self.drop_probability = probability

    def schedule(self, delay_ms: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` after ``delay_ms`` of simulated time — the primitive
        behind scripted fault schedules ("at t+50ms, partition store-1")."""
        self.sim._schedule(delay_ms, fn)

    def crash(self, name: str) -> None:
        """Crash a host: its inbox stops receiving and sends are dropped."""
        self.host(name).crashed = True
        self._refresh_faults()

    def recover(self, name: str) -> None:
        """Bring a crashed host back (its inbox resumes receiving)."""
        self.host(name).crashed = False
        self._refresh_faults()

    def partition(self, group_a: list[str], group_b: list[str]) -> None:
        """Cut bidirectional connectivity between two groups of hosts."""
        for a in group_a:
            for b in group_b:
                self._partitions.add((a, b))
                self._partitions.add((b, a))
        self._refresh_faults()

    def isolate(self, name: str) -> None:
        """Cut ``name`` off from every other registered host."""
        others = [host for host in self._hosts if host != name]
        self.partition([name], others)

    def heal(self) -> None:
        """Remove all partitions."""
        self._partitions.clear()
        self._refresh_faults()

    def is_partitioned(self, src: str, dst: str) -> bool:
        """Whether messages from ``src`` to ``dst`` are currently cut."""
        return (src, dst) in self._partitions

    # -- transmission -----------------------------------------------------

    def send(self, src: str, dst: str, payload: Any, size_bytes: int = 256) -> None:
        """Send ``payload`` from ``src`` to ``dst``; delivery is async.

        Messages between distinct hosts incur sampled latency plus a
        serialisation delay for ``size_bytes``; loopback messages are
        delivered after a negligible fixed cost.  Crashed or partitioned
        endpoints silently eat messages, like a real datagram network.

        With no fault injection configured (:attr:`_faults_active` clear)
        the drop checks and per-link accounting are skipped entirely; the
        RNG draw order is unchanged because the fault checks draw only
        when their respective fault is configured.
        """
        hosts = self._hosts
        src_host = hosts.get(src)
        dst_host = hosts.get(dst)
        if src_host is None or dst_host is None:
            missing = src if src_host is None else dst
            raise SimulationError(f"unknown host {missing!r}")
        message = Message(src, dst, payload, size_bytes, sent_at=self.sim.now)
        stats = self.stats
        stats.frames_sent += 1
        stats.bytes_sent += size_bytes
        if self.tap is not None:
            # Taps see every attempted send, including ones dropped below.
            self.tap(message)

        if self._coalescing and src != dst:
            # Queue the frame on the egress link; one flush callback per
            # coalesce window ships every queued link as wire messages.
            queue = self._egress.get((src, dst))
            if queue is None:
                self._egress[(src, dst)] = [message]
            else:
                queue.append(message)
            if not self._flush_armed:
                self._flush_armed = True
                if self._coalesce_window == 0.0:
                    self.sim._schedule_now(self._flush_egress)
                else:
                    self.sim._schedule(self._coalesce_window, self._flush_egress)
            return

        stats.messages_sent += 1
        if self._faults_active and self._dropped_at_send(src, dst, (message,)):
            return

        if src == dst:
            delay = 0.001  # loopback: scheduling cost only
        else:
            const = self._const_latency_ms
            delay = (
                const if const is not None else self._sample(self._rng)
            ) + size_bytes / self._bytes_per_ms

        self.sim._schedule(delay, _Delivery(self, message, dst_host))
