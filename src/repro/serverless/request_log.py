"""Kafka-like durable request log (paper §4.1).

OpenWhisk's load balancer "must also log client requests in a durable way
to ensure that, in case of compute node failures, there will always be a
response generated", implemented there with Apache Kafka.  This model
captures the latency role of that log: an append is acknowledged once a
majority of log replicas have it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.core import Simulation
from repro.sim.network import LatencyModel

#: replicas of the request log (Kafka's usual replication factor); an
#: append is acknowledged by a majority of them
LOG_REPLICAS = 3


@dataclass
class RequestLogStats:
    """Durable-log counters."""

    appends: int = 0
    entries: int = 0


class DurableRequestLog:
    """A replicated append-only log with majority acknowledgement."""

    def __init__(
        self,
        sim: Simulation,
        latency: LatencyModel,
        num_replicas: int = LOG_REPLICAS,
        append_service_ms: float = 0.05,
    ) -> None:
        self.sim = sim
        self._latency = latency
        self._rng = sim.rng("request-log")
        self.num_replicas = num_replicas
        self._append_service = append_service_ms
        self.entries: list[Any] = []
        self.stats = RequestLogStats()

    @property
    def majority(self) -> int:
        return self.num_replicas // 2 + 1

    def append(self, entry: Any):
        """Simulation process: durably append; returns the log offset.

        The latency charged is the majority replica round trip: the
        slowest of the fastest-majority acknowledgements.
        """
        round_trips = sorted(
            self._latency.sample(self._rng) * 2 + self._append_service
            for _ in range(self.num_replicas)
        )
        yield self.sim.timeout(round_trips[self.majority - 1])
        self.entries.append(entry)
        self.stats.appends += 1
        self.stats.entries = len(self.entries)
        return len(self.entries) - 1
