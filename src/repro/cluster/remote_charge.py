"""Nested-call billing between primaries (DESIGN.md §4b, §5q).

A cross-node nested call runs on the owner's runtime during the caller's
execution; afterwards the caller sends the owner a :class:`RemoteCharge`
(fuel + the owner's writes as one round), retransmitted until acked and
deduplicated at the owner, which charges a core and replicates the round.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.cluster.replication import ACK_TIMEOUT_MS

#: retransmission budget for RemoteCharge delivery to nested-call owners
CHARGE_MAX_ATTEMPTS = 5


@dataclass
class RemoteCharge:
    """Primary A -> primary B: charge CPU + replicate for a nested
    invocation whose effects were applied during A's execution."""

    charge_id: str
    fuel: float
    #: the owner's writes as one encoded round (``b""`` when it wrote none)
    payload: bytes
    sender: str
    #: originating request id, so the owner's settle span joins the trace
    trace_id: str = ""

    def size(self) -> int:
        return 32 + len(self.payload)


@dataclass
class RemoteChargeAck:
    """Owner -> caller: remote charge settled."""

    charge_id: str

    def size(self) -> int:
        return 16


class RemoteCharges:
    """One node's half of remote-charge billing, as caller and as owner."""

    def __init__(self, node: Any, seen_cap: int) -> None:
        self.node = node
        self._seen_cap = seen_cap
        #: charge_id -> ack event, for charges this node sent
        self._waiters: dict[str, Any] = {}
        #: charge_id -> completed?  (at-most-once for retransmitted charges)
        self._seen: "OrderedDict[str, bool]" = OrderedDict()
        node.endpoint.on(RemoteCharge, self._on_charge)
        node.endpoint.on(RemoteChargeAck, self._on_ack)

    @property
    def awaiting_ack(self) -> int:
        """Charges this node sent that are not acked yet."""
        return len(self._waiters)

    def bill(self, request_id: str, capture: Any, parent=None):
        """Bill each remote nested dispatch of one execution to its
        owner, one charge at a time, in dispatch order."""
        node = self.node
        for index, (owner_name, sub_result) in enumerate(capture.remote_dispatches):
            charge = RemoteCharge(
                charge_id=f"{node.name}#{request_id}#{index}",
                fuel=sub_result.total_fuel(),
                payload=capture.round_for(owner_name)[0],
                sender=node.name,
                trace_id=request_id,
            )
            yield from self._send(charge, owner_name, parent=parent)

    def _send(self, charge: RemoteCharge, owner_name: str, parent=None):
        """Deliver a RemoteCharge with bounded retransmission + backoff.

        The charge carries the owner's writes for replication to
        its backups, so dropping it on first timeout would silently lose
        those writes' replication.  Retransmit until acked or the attempt
        budget runs out (the owner is then presumed dead and its shard's
        reconfiguration takes over); dedupe at the owner keeps
        retransmissions at-most-once."""
        node = self.node
        tracer = node.tracer
        span = None
        if tracer is not None:
            span = tracer.start(
                "remote_charge", parent=parent, node=node.name, owner=owner_name
            )
        event = node.sim.event()
        self._waiters[charge.charge_id] = event
        timeout_ms = ACK_TIMEOUT_MS * 2
        try:
            for attempt in range(CHARGE_MAX_ATTEMPTS):
                if attempt:
                    node.stats.remote_charge_retries += 1
                node.endpoint.send(owner_name, charge)
                yield from node.sim.wait(event, timeout_ms)
                if event.triggered:
                    return True
                timeout_ms *= 2
            node.stats.remote_charge_timeouts += 1
            if span is not None:
                span.status = "timeout"
            return False
        finally:
            self._waiters.pop(charge.charge_id, None)
            if span is not None:
                tracer.end(span, status=span.status)

    def _on_ack(self, message: RemoteChargeAck) -> None:
        waiter = self._waiters.pop(message.charge_id, None)
        if waiter is not None:
            waiter.succeed()

    def _on_charge(self, message: RemoteCharge) -> None:
        done = self._seen.get(message.charge_id)
        if done is None:
            # First sighting: remember it so retransmissions of the
            # same charge never double-bill CPU or re-replicate.
            self._seen[message.charge_id] = False
            while len(self._seen) > self._seen_cap:
                self._seen.popitem(last=False)
            node = self.node
            node.sim.process(self._settle(message), name=f"{node.name}.charge")
        elif done:
            # Already settled; the earlier ack was lost — re-ack.
            ack = RemoteChargeAck(message.charge_id)
            self.node.endpoint.send(message.sender, ack)
        # else: still in flight; the original handler will ack.

    def _settle(self, message: RemoteCharge):
        """Charge CPU + replication for a nested invocation executed here."""
        node = self.node
        node.stats.remote_charges += 1
        tracer = node.tracer
        span = None
        if tracer is not None and message.trace_id:
            # Joins the originating request's trace as a second root on
            # this node (the cross-node correlation key is the request id).
            span = tracer.start(
                "remote_charge.settle",
                trace_id=message.trace_id,
                node=node.name,
                sender=message.sender,
            )
        try:
            yield from node.charge_cpu(message.fuel)
            own_shard = node.led_shard()
            if message.payload and own_shard is not None:
                yield from node.replicate_round(
                    own_shard.shard_id, message.payload, parent=span
                )
            if message.charge_id in self._seen:
                self._seen[message.charge_id] = True
            ack = RemoteChargeAck(message.charge_id)
            node.endpoint.send(message.sender, ack)
        finally:
            if span is not None:
                tracer.end(span)
