"""Invocation results and statistics.

An invocation produces a value and commits its writes (§3); what the
writes did is observable through committed storage and the runtime's
``runtime_commits`` counter (one per commit segment: a nested call splits
its caller in two, §3.1), so the result carries only what the platforms
read: the value, the fuel that prices the CPU time, the read set the
result cache keys on, and the nested results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.ids import ObjectId
from repro.obs.registry import StatsView


@dataclass
class InvocationResult:
    """What the platforms read of one completed invocation."""

    object_id: ObjectId
    method: str
    value: Any
    #: fuel consumed by the guest (drives the simulator's CPU-time model)
    fuel_used: float
    #: committed-state observations: key -> value digest
    read_set: dict[bytes, bytes]
    #: results of nested invocations dispatched by this one
    sub_results: list["InvocationResult"] = field(default_factory=list)
    #: served from the consistent result cache without executing
    cache_hit: bool = False

    def total_invocations(self) -> int:
        """This invocation plus all transitively nested ones."""
        return 1 + sum(sub.total_invocations() for sub in self.sub_results)

    def total_fuel(self) -> float:
        """Fuel across this invocation and all nested ones."""
        return self.fuel_used + sum(sub.total_fuel() for sub in self.sub_results)


class InvocationStats(StatsView):
    """Aggregate counters a runtime keeps across invocations.

    Registry-backed (see :class:`repro.obs.StatsView`): attribute access
    is unchanged, but each field is a labelled series in the owning
    platform's metrics registry.
    """

    PREFIX = "runtime"
    COUNTERS = {
        "invocations": 0,
        "nested_invocations": 0,
        "commits": 0,
        "aborts": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "fuel_used": 0.0,
    }
