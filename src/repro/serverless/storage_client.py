"""Remote storage access for the disaggregated baseline.

:class:`RecordingStorage` implements the runtime's storage protocol while
recording every operation that would cross the network.  Guest code
executes synchronously against the real backing state; the compute node
then *replays* the recorded operations as simulated round trips to the
storage replica set (see DESIGN.md's execute-then-replay methodology).

Writes apply to every replica's backend immediately — the baseline
replicates asynchronously and gives no consistency guarantees, so the
performance model only charges the primary round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.storage import MemoryBackend
from repro.kvstore.batch import WriteBatch
from repro.wasm.host_api import OpCosts


@dataclass
class StorageOp:
    """One recorded remote storage operation."""

    kind: str  # "get" | "scan" | "commit"
    #: storage-side service cost in fuel units
    fuel: float
    #: payload bytes moved (drives serialisation delay)
    size_bytes: int
    #: True if any replica can serve it (reads), False = primary only
    replica_ok: bool


class RecordingStorage:
    """Storage backend that records remote-operation costs.

    ``backends[0]`` is the primary; reads are served from it (values are
    identical across replicas because writes fan out synchronously in
    data-space, asynchronously in time-space).
    """

    def __init__(self, backends: list[MemoryBackend], costs: Optional[OpCosts] = None) -> None:
        if not backends:
            raise ValueError("RecordingStorage needs at least one backend")
        self._backends = backends
        self._primary = backends[0]
        self._costs = costs or OpCosts()
        #: active trace, or None when recording is off (setup phase)
        self.trace: Optional[list[StorageOp]] = None

    def begin_trace(self) -> list[StorageOp]:
        self.trace = []
        return self.trace

    def end_trace(self) -> None:
        self.trace = None

    def _record(self, kind: str, fuel: float, size_bytes: int, replica_ok: bool) -> None:
        if self.trace is not None:
            self.trace.append(StorageOp(kind, fuel, size_bytes, replica_ok))

    # -- StorageBackend protocol ------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        value = self._primary.get(key)
        size = len(value) if value is not None else 0
        self._record("get", self._costs.kv_get + self._costs.payload(size), size + len(key), True)
        return value

    def apply(self, batch: WriteBatch) -> None:
        total_bytes = sum(len(k) + len(v) for _kind, k, v in batch.items())
        for backend in self._backends:
            backend.apply(batch)  # read, never kept: one batch serves all
        self._record(
            "commit",
            self._costs.kv_put * max(len(batch), 1) + self._costs.payload(total_bytes),
            total_bytes,
            False,
        )

    def iterate(self, start: bytes, end: Optional[bytes]) -> Iterator[tuple[bytes, bytes]]:
        return iter(self._scan(start, end))

    def tail(self, start: bytes, end: Optional[bytes], limit: int) -> list[tuple[bytes, bytes]]:
        # Charged as the whole range: a remote store ships the collection
        # and the function picks the tail, so the baseline's cost model is
        # the same as for a full scan.
        return self._scan(start, end)[::-1][:max(limit, 0)]

    def _scan(self, start: bytes, end: Optional[bytes]) -> list[tuple[bytes, bytes]]:
        items = list(self._primary.iterate(start, end))
        total_bytes = sum(len(k) + len(v) for k, v in items)
        self._record(
            "scan",
            self._costs.kv_get
            + self._costs.collection_scan_per_item * len(items)
            + self._costs.payload(total_bytes),
            total_bytes,
            True,
        )
        return items
