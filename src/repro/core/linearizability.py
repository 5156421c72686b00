"""Client history recording and a linearizability checker.

LambdaObjects promise *invocation linearizability* (paper §3.1): committed
invocations are atomic, isolated, and respect real time.  To test that the
distributed layer actually delivers it, clients record each invocation as
a :class:`RecordedInvocation` with its real-time interval — including
invocations that never returned (timeouts, crashes), which may or may not
have taken effect.  :class:`HistoryRecorder` plugs into
:class:`~repro.cluster.client.ClusterClient` via its ``recorder=``
argument; one recorder shared by all clients of a run orders the history
by simulated time.  The checker then searches for a legal sequential
order consistent with real time (Wing & Gong's algorithm with memoisation
on (remaining-ops, state)).

The checker is model-agnostic: you supply a *sequential specification* —
a function ``apply(state, op) -> (ok, new_state)`` over hashable states.
:func:`register_model` builds the common per-object read/write-register
spec used by the cluster tests and the chaos checker.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.errors import ReproError

ApplyFn = Callable[[Hashable, "RecordedInvocation"], tuple[bool, Hashable]]


@dataclass
class RecordedInvocation:
    """One client-observed invocation with its real-time interval."""

    op_id: int
    client: str
    object_id: str
    method: str
    args: tuple
    invoke_at: float
    return_at: float = float("inf")
    result: Any = None
    error: Optional[str] = None

    @property
    def completed(self) -> bool:
        """Whether the client observed a successful reply."""
        return self.return_at != float("inf") and self.error is None


class HistoryRecorder:
    """Collects every invocation issued by participating clients."""

    def __init__(self) -> None:
        self._records: list[RecordedInvocation] = []
        self._ids = itertools.count()

    def begin(
        self, client: str, object_id: str, method: str, args: tuple, invoke_at: float
    ) -> RecordedInvocation:
        """Record an invocation; complete it with :meth:`finish` or :meth:`fail`."""
        record = RecordedInvocation(
            op_id=next(self._ids),
            client=client,
            object_id=object_id,
            method=method,
            args=tuple(args),
            invoke_at=invoke_at,
        )
        self._records.append(record)
        return record

    def finish(self, record: RecordedInvocation, return_at: float, result: Any) -> None:
        """Record an invocation's successful reply."""
        if return_at < record.invoke_at:
            raise ReproError(
                f"invocation returns before it starts ({return_at} < {record.invoke_at})"
            )
        record.return_at = return_at
        record.result = result

    def fail(self, record: RecordedInvocation, return_at: float, error: str) -> None:
        """The invocation definitively failed *or* gave up retrying.

        A "gave up"/timeout failure is ambiguous — the request may still
        have executed server-side — so a failed record is not
        :attr:`~RecordedInvocation.completed`, while it records when the
        client stopped caring.
        """
        record.return_at = return_at
        record.error = error

    def invocations(self) -> list[RecordedInvocation]:
        return list(self._records)

    def incomplete(self) -> list[RecordedInvocation]:
        """Invocations with no successful response (timed out or errored);
        their effects may or may not have been applied."""
        return [r for r in self._records if not r.completed]

    def by_object(self) -> dict[str, list[RecordedInvocation]]:
        grouped: dict[str, list[RecordedInvocation]] = {}
        for record in self._records:
            grouped.setdefault(record.object_id, []).append(record)
        return grouped

    def __len__(self) -> int:
        return len(self._records)


def register_model(initial: Optional[dict[str, Any]] = None) -> tuple[Hashable, ApplyFn]:
    """Sequential spec for per-object read/write registers.

    Invocations: ``method="write"`` with ``args=(value,)`` always
    succeeds; ``method="read"`` succeeds iff ``result`` equals the
    register's current value (``None`` for never-written objects).
    """
    state: Hashable = frozenset((initial or {}).items())

    def apply(current: Hashable, op: RecordedInvocation) -> tuple[bool, Hashable]:
        mapping = dict(current)  # type: ignore[arg-type]
        if op.method == "write":
            mapping[op.object_id] = op.args[0]
            return True, frozenset(mapping.items())
        if op.method == "read":
            return mapping.get(op.object_id) == op.result, current
        raise ReproError(f"register model cannot apply method {op.method!r}")

    return state, apply


def check_linearizable(
    history: Iterable[RecordedInvocation],
    initial_state: Hashable,
    apply_fn: ApplyFn,
    max_states: int = 2_000_000,
) -> bool:
    """Whether a legal linearisation of the completed invocations exists.

    Incomplete invocations may or may not have taken effect; this checker
    drops them, so a caller that must account for them (the chaos
    checker's maybe-applied writes) passes them in re-timed as completed.
    Exhaustive search with memoisation; exponential in the worst case, so
    keep test histories modest (tens of concurrent operations).
    ``max_states`` bounds the search as a safety valve — exceeding it
    raises rather than returning a wrong answer.
    """
    operations = [op for op in history if op.completed]
    if not operations:
        return True

    explored: set[tuple[frozenset, Hashable]] = set()
    budget = [max_states]

    def precedes(a: RecordedInvocation, b: RecordedInvocation) -> bool:
        return a.return_at < b.invoke_at

    def search(remaining: frozenset, state: Hashable) -> bool:
        if not remaining:
            return True
        memo_key = (remaining, state)
        if memo_key in explored:
            return False
        if budget[0] <= 0:
            raise ReproError(
                "linearizability search exceeded its state budget; "
                "use a smaller history"
            )
        budget[0] -= 1

        remaining_ops = [op for op in operations if op.op_id in remaining]
        # Minimal operations: nothing else in `remaining` finished before
        # they started.
        for candidate in remaining_ops:
            if any(precedes(other, candidate) for other in remaining_ops if other is not candidate):
                continue
            ok, next_state = apply_fn(state, candidate)
            if ok and search(remaining - {candidate.op_id}, next_state):
                return True
        explored.add(memo_key)
        return False

    return search(frozenset(op.op_id for op in operations), initial_state)
