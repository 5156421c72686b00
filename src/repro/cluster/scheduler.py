"""Per-object invocation scheduling = concurrency control.

Paper §4.2: "Because functions only directly access data within the same
object, nodes can avoid write conflicts by not scheduling two functions
modifying data of the same object at the same time. [...] LambdaStore
then combines function scheduling and concurrency control."

The lock table grants at most one mutating invocation per object, FIFO.
Read-only invocations never take the lock (they run against committed
state at any replica), which is exactly why the abstraction lets the
application developer "determine the granularity of locks".
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import SimulationError
from repro.obs.registry import MetricsRegistry, StatsView
from repro.sim.core import Simulation
from repro.sim.events import Event


class SchedulerStats(StatsView):
    """Lock-table counters (contention visibility)."""

    PREFIX = "scheduler"
    COUNTERS = {"acquisitions": 0, "contentions": 0}  # contentions had to wait
    GAUGES = {"max_queue_length": 0}


class ObjectLockTable:
    """FIFO mutual exclusion per object id."""

    def __init__(
        self,
        sim: Simulation,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[dict] = None,
    ) -> None:
        self._sim = sim
        self._held: set[str] = set()
        self._waiting: dict[str, deque[Event]] = {}
        self.stats = SchedulerStats(registry, labels)
        # acquire() runs once per mutating invocation; preresolved handles
        # keep the increments off the StatsView attribute protocol.
        self._c_acquisitions = self.stats.cell("acquisitions")
        self._c_contentions = self.stats.cell("contentions")
        self._g_max_queue_length = self.stats.handle("max_queue_length")

    def acquire(self, object_id: str) -> Event:
        """Event that succeeds when this caller holds the object's lock."""
        event = self._sim.event(name=f"lock:{object_id[:8]}")
        self._c_acquisitions.inc()
        if object_id not in self._held:
            self._held.add(object_id)
            event.succeed()
        else:
            queue = self._waiting.setdefault(object_id, deque())
            queue.append(event)
            self._c_contentions.inc()
            if len(queue) > self._g_max_queue_length.value:
                self._g_max_queue_length.set(len(queue))
        return event

    def release(self, object_id: str) -> None:
        """Release the lock, handing it to the oldest waiter if any."""
        if object_id not in self._held:
            raise SimulationError(f"release of unheld object lock {object_id[:8]}")
        queue = self._waiting.get(object_id)
        if queue:
            queue.popleft().succeed()
            if not queue:
                del self._waiting[object_id]
        else:
            self._held.discard(object_id)

    def is_locked(self, object_id: str) -> bool:
        return object_id in self._held

    def queue_length(self, object_id: str) -> int:
        return len(self._waiting.get(object_id, ()))

    def total_waiting(self) -> int:
        """Waiters queued across all objects — the backpressure signal
        admission control reads (cheap: the dict holds only contended
        objects, which is a handful even under a write storm)."""
        if not self._waiting:
            return 0
        return sum(len(queue) for queue in self._waiting.values())
