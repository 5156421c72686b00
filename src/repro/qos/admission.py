"""Per-tenant token-bucket admission control with backpressure shedding.

One :class:`AdmissionController` guards one entry point (a storage
node).  Every inbound request passes three gates in order:

1. **Concurrency cap** — a hard bound on admitted requests still in
   flight at this entry point.  Protects the node itself: past this
   point every extra request only lengthens queues.
2. **Backpressure shedding** — a pluggable ``pressure_fn`` reports the
   downstream queue depth (the per-object scheduler lock queues on a
   storage node).  Mutating requests are shed once the queues pass the
   threshold while read-only requests keep flowing ("protect reads") —
   write storms serialise on per-object locks anyway, so shedding them
   first preserves the read SLO at almost no goodput cost.
3. **Per-tenant token bucket** — the rate contract.  Buckets refill
   lazily off the simulation clock, so an idle tenant costs nothing and
   the controller adds no events to the simulation.

A rejected request carries the *exact* time until its gate clears (the
bucket's refill deficit, or a fixed hint for the other gates), which the
server wraps in a :class:`repro.rpc.RetryAfter` reply — clients sleep
that advice instead of their policy's blind backoff.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.obs.registry import StatsView


class AdmissionStats(StatsView):
    """Admission-control counters (one set per guarded entry point)."""

    PREFIX = "admission"
    COUNTERS = {
        "admitted": 0,
        "shed_rate": 0,
        "shed_concurrency": 0,
        "shed_pressure": 0,
    }
    GAUGES = {"inflight": 0, "tenants": 0}

    @property
    def shed_total(self) -> int:
        return self.shed_rate + self.shed_concurrency + self.shed_pressure


class TokenBucket:
    """A lazily-refilled token bucket (no background process).

    ``try_take`` returns 0.0 when the cost was taken, otherwise the
    milliseconds until the bucket will hold enough tokens — the number a
    shedding server advises the client to sleep.
    """

    __slots__ = ("rate_per_ms", "burst", "tokens", "updated_at", "last_used")

    def __init__(self, rate_per_sec: float, burst: float, now: float) -> None:
        if rate_per_sec <= 0:
            raise ValueError(f"rate must be > 0, got {rate_per_sec}")
        self.rate_per_ms = rate_per_sec / 1000.0
        self.burst = max(burst, 1.0)
        self.tokens = self.burst
        self.updated_at = now
        self.last_used = now

    def try_take(self, now: float, cost: float = 1.0) -> float:
        """Take ``cost`` tokens; 0.0 on success, else ms until available."""
        if now > self.updated_at:
            self.tokens = min(
                self.burst, self.tokens + (now - self.updated_at) * self.rate_per_ms
            )
            self.updated_at = now
        self.last_used = now
        if self.tokens >= cost:
            self.tokens -= cost
            return 0.0
        return (cost - self.tokens) / self.rate_per_ms


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check."""

    admitted: bool
    #: server-advised backoff for a shed request (0 when admitted)
    retry_after_ms: float = 0.0
    #: which gate shed it: "" | "rate" | "concurrency" | "pressure"
    reason: str = ""


#: the decision handed out on the (hot) all-clear path
_ADMITTED = AdmissionDecision(True)


class AdmissionController:
    """Guards one entry point with the three admission gates.

    Parameters
    ----------
    clock:
        Zero-arg callable returning the current simulated time (ms).
    tenant_rate_per_sec:
        Per-tenant admitted-request rate; 0 disables the rate gate.
    tenant_burst:
        Bucket depth in tokens; 0 picks ``max(8, 50 ms of rate)`` so
        short bursts ride through without shedding.
    max_inflight:
        Concurrency cap on admitted-but-unreleased requests; 0 disables.
    pressure_fn / pressure_threshold:
        Downstream queue-depth probe and the depth that trips shedding of
        mutating requests; an unset probe disables the pressure gate.
    max_tenants:
        LRU cap on tracked tenant buckets (a chaos soak with churning
        client names must not grow the map unboundedly).
    """

    #: advised delay when the concurrency cap sheds (in-flight work
    #: drains on the scale of a request service time)
    CONCURRENCY_RETRY_MS = 2.0
    #: advised delay per queued waiter when backpressure sheds
    PRESSURE_RETRY_PER_WAITER_MS = 0.25
    PRESSURE_RETRY_MIN_MS = 1.0

    def __init__(
        self,
        clock: Callable[[], float],
        *,
        tenant_rate_per_sec: float = 0.0,
        tenant_burst: float = 0.0,
        max_inflight: int = 0,
        pressure_fn: Optional[Callable[[], float]] = None,
        pressure_threshold: int = 32,
        max_tenants: int = 1024,
        registry: Optional[Any] = None,
        labels: Optional[dict] = None,
    ) -> None:
        self._clock = clock
        self.tenant_rate_per_sec = tenant_rate_per_sec
        self.tenant_burst = (
            tenant_burst
            if tenant_burst > 0
            else max(8.0, tenant_rate_per_sec * 0.05)
        )
        self.max_inflight = max_inflight
        self.pressure_fn = pressure_fn
        self.pressure_threshold = max(1, pressure_threshold)
        self.max_tenants = max(1, max_tenants)
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._inflight = 0
        self.stats = AdmissionStats(registry, labels)
        # admit() runs once per request; preresolved handles keep the hot
        # path off the StatsView attribute protocol.
        self._c_admitted = self.stats.cell("admitted")
        self._c_shed_rate = self.stats.cell("shed_rate")
        self._c_shed_concurrency = self.stats.cell("shed_concurrency")
        self._c_shed_pressure = self.stats.cell("shed_pressure")
        self._g_inflight = self.stats.handle("inflight")
        self._g_tenants = self.stats.handle("tenants")

    @property
    def inflight(self) -> int:
        return self._inflight

    def admit(
        self, tenant: str, readonly: bool = False, cost: float = 1.0
    ) -> AdmissionDecision:
        """Check all gates for one request; admitted requests MUST be
        paired with exactly one :meth:`release` when they finish."""
        if self.max_inflight > 0 and self._inflight >= self.max_inflight:
            self._c_shed_concurrency.inc()
            return AdmissionDecision(
                False, self.CONCURRENCY_RETRY_MS, "concurrency"
            )
        if self.pressure_fn is not None and not readonly:
            depth = self.pressure_fn()
            if depth >= self.pressure_threshold:
                self._c_shed_pressure.inc()
                return AdmissionDecision(
                    False,
                    max(
                        self.PRESSURE_RETRY_MIN_MS,
                        depth * self.PRESSURE_RETRY_PER_WAITER_MS,
                    ),
                    "pressure",
                )
        if self.tenant_rate_per_sec > 0:
            wait_ms = self._bucket_for(tenant).try_take(self._clock(), cost)
            if wait_ms > 0:
                self._c_shed_rate.inc()
                return AdmissionDecision(False, wait_ms, "rate")
        self._inflight += 1
        self._c_admitted.inc()
        self._g_inflight.set(self._inflight)
        return _ADMITTED

    def release(self) -> None:
        """Mark one admitted request as finished."""
        if self._inflight > 0:
            self._inflight -= 1
            self._g_inflight.set(self._inflight)

    def _bucket_for(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            while len(self._buckets) >= self.max_tenants:
                # Evict the least-recently-admitting tenant; it restarts
                # with a full burst if it ever comes back, which only
                # errs in the tenant's favor.
                self._buckets.popitem(last=False)
            bucket = TokenBucket(
                self.tenant_rate_per_sec, self.tenant_burst, self._clock()
            )
            self._buckets[tenant] = bucket
            self._g_tenants.set(len(self._buckets))
        else:
            self._buckets.move_to_end(tenant)
        return bucket
