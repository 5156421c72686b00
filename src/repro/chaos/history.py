"""Client-side invocation recording for the chaos harness.

Every client invocation is logged as ``(invoke_at, return_at, object,
method, args, result)`` — including invocations that never returned
(timeouts, crashes), which are exactly the ones a linearizability checker
must treat as "may or may not have taken effect".

:class:`HistoryRecorder` plugs into :class:`~repro.cluster.client.ClusterClient`
via its ``recorder=`` constructor argument; one recorder is shared by all
clients of a run so the resulting history is totally ordered by simulated
time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional


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

    @property
    def failed(self) -> bool:
        """Whether the invocation ended with a definite error reply."""
        return self.error is not None


class HistoryRecorder:
    """Collects every invocation issued by participating clients."""

    def __init__(self) -> None:
        self._records: list[RecordedInvocation] = []
        self._ids = itertools.count()

    # -- hooks called by ClusterClient ------------------------------------

    def begin(
        self, client: str, object_id: str, method: str, args: tuple, invoke_at: float
    ) -> RecordedInvocation:
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
        record.return_at = return_at
        record.result = result

    def fail(self, record: RecordedInvocation, return_at: float, error: str) -> None:
        """The invocation definitively failed *or* gave up retrying.

        A "gave up"/timeout failure is ambiguous — the request may still
        have executed server-side — so failed records keep
        ``return_at = inf`` semantics for the checker via :attr:`completed`
        while recording when the client stopped caring.
        """
        record.return_at = return_at
        record.error = error

    # -- views -------------------------------------------------------------

    def invocations(self) -> list[RecordedInvocation]:
        return list(self._records)

    def completed(self) -> list[RecordedInvocation]:
        return [r for r in self._records if r.completed]

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

