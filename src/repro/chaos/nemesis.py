"""The nemesis: randomized fault injection on a deterministic schedule.

Drives the :class:`~repro.sim.network.Network` fault hooks (message-drop
storms, partitions, node crashes/recoveries) plus cluster-level events
(permanent primary failover, object migration, load rebalancing) from the
simulation's named RNG streams — so a chaos run is exactly reproducible
from its seed.

Events are serialized: each one sets up its fault, holds it for a sampled
duration, then restores, before the next interval is sampled.  Transient
fault durations default to well under the coordinator failure-detection
timeout so they perturb the protocols without triggering reconfiguration;
the ``failover`` event crashes a primary *permanently* to force it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.cluster.coordinator import HEARTBEAT_TIMEOUT_MS
from repro.cluster.migration import Migrator
from repro.core.ids import ObjectId
from repro.errors import ClusterError


@dataclass
class NemesisConfig:
    """Shape of the fault schedule."""

    #: mean gap between events (exponentially distributed)
    mean_interval_ms: float = 20.0
    #: global message-drop probability sampled per storm
    drop_probability_range: tuple[float, float] = (0.05, 0.3)
    #: how long each transient fault holds; keep the upper bounds below the
    #: coordinator heartbeat timeout or every event becomes a failover
    storm_duration_range: tuple[float, float] = (5.0, 20.0)
    partition_duration_range: tuple[float, float] = (5.0, 20.0)
    crash_duration_range: tuple[float, float] = (5.0, 20.0)
    #: event kinds to sample from, uniformly
    events: tuple[str, ...] = ("drop_storm", "partition", "crash_recover")
    #: permanent primary crashes are bounded (each one removes a node)
    max_failovers: int = 1
    #: objects eligible for nemesis-driven migration
    migration_objects: tuple[ObjectId, ...] = ()


class Nemesis:
    """Injects faults into a running cluster until stopped."""

    def __init__(
        self, cluster: Any, config: Optional[NemesisConfig] = None, name: str = "nemesis"
    ) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.net = cluster.net
        self.name = name
        self.config = config or NemesisConfig()
        unknown = [e for e in self.config.events if not hasattr(self, f"_do_{e}")]
        if unknown:
            known = sorted(
                attr[len("_do_"):] for attr in dir(self) if attr.startswith("_do_")
            )
            raise ValueError(
                f"unknown nemesis event(s) {unknown}; known events: {known}"
            )
        low, high = self.config.drop_probability_range
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError(
                f"drop_probability_range must satisfy 0 <= low <= high <= 1, "
                f"got ({low}, {high})"
            )
        self.rng = self.sim.rng(f"nemesis.{name}")
        #: (sim time, event description) — the run's fault script, for debugging
        self.events_log: list[tuple[float, str]] = []
        self._running = False
        self._failovers = 0
        #: nodes this nemesis crashed transiently and still owes a recovery
        self._down_transiently: set[str] = set()
        self._migrator: Optional[Migrator] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin injecting faults (idempotent)."""
        if self._running:
            return
        self._running = True
        self.sim.process(self._run(), name=f"{self.name}.loop")

    def stop(self) -> None:
        self._running = False

    def calm(self) -> None:
        """Stop injecting and clear every outstanding transient fault, so
        the cluster can quiesce.  Permanently failed-over nodes stay down."""
        self.stop()
        self.net.set_drop_probability(0.0)
        self.net.clear_link_drops()
        self.net.drop_filter = None
        self.net.heal()
        for name in sorted(self._down_transiently):
            self.cluster.recover_node(name)
            self._log(f"calm: recovered {name}")
        self._down_transiently.clear()

    # -- the schedule ------------------------------------------------------

    def _run(self):
        if not self.config.events:
            return  # an empty schedule is a deliberate no-op nemesis
        while self._running:
            yield self.sim.timeout(
                self.rng.expovariate(1.0 / self.config.mean_interval_ms)
            )
            if not self._running:
                return
            event = self.rng.choice(list(self.config.events))
            handler = getattr(self, f"_do_{event}")
            yield from handler()

    def _log(self, description: str) -> None:
        self.events_log.append((self.sim.now, description))

    def _storage_names(self, live_only: bool = True) -> list[str]:
        return [
            name
            for name, node in self.cluster.nodes.items()
            if not (live_only and node.crashed)
        ]

    def _crashable(self) -> list[str]:
        """Live storage nodes whose replica set keeps >= 1 other live member."""
        _epoch, shard_map = self.cluster.current_config()
        victims = []
        for name in self._storage_names():
            replica_set = shard_map.shard_of_node(name)
            if replica_set is None:
                continue
            others_alive = sum(
                1
                for member in replica_set.members
                if member != name
                and member in self.cluster.nodes
                and not self.cluster.nodes[member].crashed
            )
            if others_alive >= 1:
                victims.append(name)
        return victims

    # -- event handlers ----------------------------------------------------

    def _do_drop_storm(self):
        low, high = self.config.drop_probability_range
        probability = self.rng.uniform(low, high)
        duration = self.rng.uniform(*self.config.storm_duration_range)
        self._log(f"drop storm p={probability:.2f} for {duration:.1f}ms")
        self.net.set_drop_probability(probability)
        yield self.sim.timeout(duration)
        self.net.set_drop_probability(0.0)

    def _do_partition(self):
        candidates = self._storage_names()
        if not candidates:
            return
        victim = self.rng.choice(candidates)
        duration = self.rng.uniform(*self.config.partition_duration_range)
        self._log(f"partition {victim} for {duration:.1f}ms")
        self.net.isolate(victim)
        yield self.sim.timeout(duration)
        self.net.heal()

    def _do_crash_recover(self):
        candidates = self._crashable()
        if not candidates:
            return
        victim = self.rng.choice(candidates)
        duration = self.rng.uniform(*self.config.crash_duration_range)
        self._log(f"crash {victim} for {duration:.1f}ms")
        self.cluster.crash_node(victim)
        self._down_transiently.add(victim)
        yield self.sim.timeout(duration)
        if victim in self._down_transiently:
            self.cluster.recover_node(victim)
            self._down_transiently.discard(victim)

    def _do_failover(self):
        if self._failovers >= self.config.max_failovers:
            return
        _epoch, shard_map = self.cluster.current_config()
        primaries = [
            rs.primary
            for rs in shard_map.replica_sets
            if rs.primary in self.cluster.nodes
            and not self.cluster.nodes[rs.primary].crashed
            and any(
                backup in self.cluster.nodes and not self.cluster.nodes[backup].crashed
                for backup in rs.backups
            )
        ]
        if not primaries:
            return
        victim = self.rng.choice(primaries)
        self._failovers += 1
        self._log(f"failover: permanently crashing primary {victim}")
        self.cluster.crash_node(victim)
        # give failure detection room to notice before the next fault
        yield self.sim.timeout(HEARTBEAT_TIMEOUT_MS)

    def _do_migrate(self):
        _epoch, shard_map = self.cluster.current_config()
        if len(shard_map.replica_sets) < 2 or not self.config.migration_objects:
            return
        object_id = self.rng.choice(list(self.config.migration_objects))
        current = shard_map.shard_for(object_id).shard_id
        targets = [
            rs.shard_id for rs in shard_map.replica_sets if rs.shard_id != current
        ]
        target = self.rng.choice(targets)
        self._log(f"migrate {object_id.short} shard {current} -> {target}")
        try:
            yield from self._get_migrator().migrate(object_id, target)
        except ClusterError as exc:
            self._log(f"migration of {object_id.short} aborted: {exc}")

    def _do_rebalance(self):
        """Move the hottest object off the busiest shard (Akkio-style),
        mid-chaos — the load-driven variant of :meth:`_do_migrate`."""
        _epoch, shard_map = self.cluster.current_config()
        if len(shard_map.replica_sets) < 2:
            return
        loads: dict[int, dict[str, int]] = {}
        for replica_set in shard_map.replica_sets:
            primary = self.cluster.nodes.get(replica_set.primary)
            loads[replica_set.shard_id] = dict(primary.object_load) if primary else {}
        totals = {shard: sum(objects.values()) for shard, objects in loads.items()}
        busiest = max(totals, key=lambda s: totals[s])
        lightest = min(totals, key=lambda s: totals[s])
        if busiest == lightest or not loads[busiest]:
            return
        hottest = max(loads[busiest], key=lambda k: loads[busiest][k])
        object_id = ObjectId(hottest)
        self._log(f"rebalance {object_id.short} shard {busiest} -> {lightest}")
        try:
            yield from self._get_migrator().migrate(object_id, lightest)
        except ClusterError as exc:
            self._log(f"rebalance of {object_id.short} aborted: {exc}")

    def _get_migrator(self) -> Migrator:
        if self._migrator is None:
            self._migrator = Migrator(self.cluster, name=f"{self.name}.migrator")
        return self._migrator
