"""Container pool: the isolation mechanism of conventional serverless.

"Serverless systems have high start-up latencies due to the use of
containers or virtual machines" (§1).  The pool models that: an
invocation needs a container; a warm one costs a small reuse delay, a
cold one pays the full provisioning cost.  Idle containers expire after a
keep-alive window, so bursty workloads keep paying cold starts.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NoCapacityError
from repro.obs.registry import MetricsRegistry, StatsView
from repro.sim.core import Simulation
from repro.sim.resources import Resource


class ContainerStats(StatsView):
    """Cold/warm start counters.

    ``PREFIX = "scheduler"``: in the baseline, the container pool *is*
    the scheduling layer, so its series line up against the LambdaStore
    lock table's ``scheduler_*`` family.
    """

    PREFIX = "scheduler"
    COUNTERS = {"cold_starts": 0, "warm_starts": 0, "expirations": 0}


class ContainerPool:
    """A bounded pool of containers with keep-alive semantics."""

    def __init__(
        self,
        sim: Simulation,
        capacity: int = 100,
        cold_start_ms: float = 120.0,
        warm_start_ms: float = 0.3,
        keepalive_ms: float = 60_000.0,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[dict] = None,
    ) -> None:
        if capacity < 1:
            raise NoCapacityError(f"container pool needs capacity >= 1, got {capacity}")
        self.sim = sim
        self._slots = Resource(sim, capacity)
        self.cold_start_ms = cold_start_ms
        self.warm_start_ms = warm_start_ms
        self.keepalive_ms = keepalive_ms
        #: expiry deadlines of idle warm containers (oldest first)
        self._warm: list[float] = []
        self.stats = ContainerStats(registry, labels)
        self._c_cold_starts = self.stats.handle("cold_starts")
        self._c_warm_starts = self.stats.handle("warm_starts")
        self._c_expirations = self.stats.handle("expirations")
        if registry is not None:
            registry.gauge(
                "scheduler_containers_in_use", labels, fn=lambda: self._slots.in_use
            )
            registry.gauge(
                "scheduler_warm_containers", labels, fn=lambda: len(self._warm)
            )
            registry.gauge(
                "scheduler_container_queue_length",
                labels,
                fn=lambda: self._slots.queue_length,
            )

    @property
    def capacity(self) -> int:
        return self._slots.capacity

    @property
    def in_use(self) -> int:
        return self._slots.in_use

    def warm_count(self) -> int:
        """Currently usable warm containers (expired ones pruned)."""
        self._expire()
        return len(self._warm)

    def _expire(self) -> None:
        now = self.sim.now
        while self._warm and self._warm[0] <= now:
            self._warm.pop(0)
            self._c_expirations.inc()

    def acquire(self):
        """Simulation process: obtain a started container.

        Waits for a free slot, then pays the warm-reuse or cold-start
        delay depending on pool state.
        """
        yield self._slots.request()
        self._expire()
        if self._warm:
            self._warm.pop()
            self._c_warm_starts.inc()
            yield self.sim.timeout(self.warm_start_ms)
        else:
            self._c_cold_starts.inc()
            yield self.sim.timeout(self.cold_start_ms)

    def release(self) -> None:
        """Return the container; it stays warm until keep-alive expiry."""
        self._warm.append(self.sim.now + self.keepalive_ms)
        self._warm.sort()
        self._slots.release()

    def prewarm(self, count: int) -> None:
        """Mark ``count`` containers as already warm (steady-state setup)."""
        self._warm.extend(self.sim.now + self.keepalive_ms for _ in range(count))
        self._warm.sort()
