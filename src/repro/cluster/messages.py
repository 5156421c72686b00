"""Typed messages exchanged between cluster participants.

Dataclasses rather than serialised bytes: the network layer charges for
``size_bytes`` explicitly, so payloads stay as Python objects while the
cost model still sees realistic message sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.ids import ObjectId
from repro.kvstore.batch import Round

#: per-attempt reply deadline for control-plane RPCs (migration
#: freeze/copy exchanges, coordinator command submission)
CONTROL_RPC_DEADLINE_MS = 50.0


def estimate_size(value: Any) -> int:
    """Rough wire size of a payload, for the bandwidth model.

    Iterative (explicit stack) rather than recursive: this runs for every
    message the cluster sends, and payloads are often deeply nested.  All
    contributions are ints, so traversal order does not affect the sum.
    """
    total = 0
    stack = [value]
    pop = stack.pop
    extend = stack.extend
    while stack:
        item = pop()
        # Exact-type checks first (the overwhelmingly common case), with an
        # isinstance fallback so subclasses size the same as before.
        cls = item.__class__
        if cls is str:
            total += len(item)
        elif cls is int or cls is float:
            total += 8
        elif cls is dict:
            total += 16
            extend(item.keys())
            extend(item.values())
        elif cls is list or cls is tuple:
            total += 16
            extend(item)
        elif item is None or cls is bool:
            total += 8
        elif isinstance(item, (str, bytes, bytearray)):
            total += len(item)
        elif isinstance(item, (int, float)):
            total += 8
        elif isinstance(item, dict):
            total += 16
            extend(item.keys())
            extend(item.values())
        elif isinstance(item, (list, tuple, set)):
            total += 16
            extend(item)
        else:
            total += 64
    return total


# -- client <-> storage node ---------------------------------------------------


@dataclass
class ClientRequest:
    """Invoke ``method`` on ``object_id``; at-most-once per ``request_id``."""

    request_id: str
    client: str
    object_id: ObjectId
    method: str
    args: tuple
    epoch: int
    #: monotonic-read fence: the serving replica must have applied at
    #: least this settled sequence for the target shard before answering
    #: a read (0 = no constraint).  Set by the client from the fences it
    #: collected on earlier replies.
    min_applied: int = 0
    #: the tenant this request bills against for admission control
    #: ("" falls back to the client name — every client its own tenant)
    tenant: str = ""
    #: memoized wire size; retransmitted requests re-send this object
    _size_memo: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def size(self) -> int:
        memo = self._size_memo
        if memo is None:
            # Tuples and lists size identically, so no need to copy the args.
            self._size_memo = memo = 64 + estimate_size(self.args)
        return memo


@dataclass
class ClientReply:
    """Response to a ClientRequest (value or error + epoch hint)."""

    request_id: str
    ok: bool
    value: Any = None
    error: str = ""
    #: set when the request was rejected for a stale epoch
    current_epoch: Optional[int] = None
    #: monotonic-read fence the client should carry forward:
    #: ``(shard_id, primary_name, settled_sequence)``.  Every fence a
    #: node hands out is settled at reply time, so carrying it as
    #: ``min_applied`` on later reads can never deadlock a replica.
    fence: Optional[tuple] = None
    #: the node that produced this reply (routing penalty attribution)
    server: str = ""

    def size(self) -> int:
        return 48 + estimate_size(self.value) + len(self.error)


# -- replication -----------------------------------------------------------


@dataclass
class ReplicateWritesRange:
    """Primary -> backup: a group-commit frame carrying a contiguous run
    of replication rounds, ``first_sequence .. first_sequence+len(rounds)-1``.

    One frame amortizes the per-message cost over many commits; the
    backup applies the rounds in order and answers with a single
    cumulative :class:`ReplicateAck`.  With replica reads on, the frame
    also renews the backup's read lease
    (:mod:`repro.cluster.replica_reads`).
    """

    shard_id: int
    epoch: int
    first_sequence: int
    #: one :class:`~repro.kvstore.batch.Round` per sequence: the batches
    #: the backup applies, the round's dirty-object hints and its size
    rounds: list[Round]
    primary: str
    #: the primary's settlement watermark when the frame was built; the
    #: backup uses it to release reads fenced on settled sequences
    settled_through: int = 0
    #: replica-read lease duration granted by this frame (0 = no lease)
    lease_ms: float = 0.0

    def size(self) -> int:
        # Frame header + a small per-round header + the rounds' wire sizes.
        return 48 + 8 * len(self.rounds) + sum(round_.size for round_ in self.rounds)


@dataclass
class ReplicateAck:
    """Backup -> primary: every sequence <= ``applied_through`` applied.

    Cumulative: one ack can settle many rounds (a backup applies strictly
    in order).
    """

    shard_id: int
    applied_through: int
    backup: str

    def size(self) -> int:
        return 32


# -- membership / failure detection ----------------------------------------


@dataclass
class Heartbeat:
    """Storage node -> coordinators: liveness beacon."""

    sender: str
    sent_at: float

    def size(self) -> int:
        return 24


# -- coordination service (client-facing) -----------------------------------


@dataclass
class CoordCommand:
    """A state-machine command submitted to the coordination service."""

    command_id: str
    kind: str  # register_node | report_failure | move_object | set_config
    payload: dict = field(default_factory=dict)

    def size(self) -> int:
        return 48 + estimate_size(self.payload)


@dataclass
class CoordReply:
    """Coordination service response (result or leader hint)."""

    command_id: str
    ok: bool
    result: Any = None
    leader_hint: Optional[str] = None

    def size(self) -> int:
        return 32 + estimate_size(self.result)


@dataclass
class ConfigQuery:
    """Ask a coordinator replica for the current configuration."""

    query_id: str

    def size(self) -> int:
        return 24


@dataclass
class ConfigReply:
    """Current epoch + shard map, answering a ConfigQuery."""

    query_id: str
    epoch: int
    config: Any  # a ShardMap snapshot

    def size(self) -> int:
        return 64 + estimate_size(getattr(self.config, "__dict__", None))


@dataclass
class NewConfig:
    """Coordinator -> everyone: a new configuration epoch is live."""

    epoch: int
    config: Any

    def size(self) -> int:
        return 64
