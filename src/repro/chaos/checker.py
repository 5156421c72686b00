"""Post-run consistency validation for chaos scenarios.

After a nemesis run is calmed and the cluster quiesced, the checker
validates four properties:

1. **Invocation linearizability** — the recorded client history admits a
   legal sequential order consistent with real time, per object, using
   the register model from :mod:`repro.core.linearizability`.  Incomplete
   *writes* (timed out / client gave up) may or may not have taken effect,
   so the checker enumerates subsets of them; incomplete reads have no
   effect and are dropped.
2. **Replica convergence** — every live member of an object's replica set
   holds byte-identical state for the object's microshard.
3. **Cache coherence** — no node's result cache retains an entry whose
   read set mismatches the node's committed storage (a missed
   invalidation; read-set validation would mask it at lookup time, but
   the invariant is what eager invalidation promises).
4. **Bookkeeping** — quiescence really drained everything: no in-flight
   requests, ack waiters, or charge waiters; at-most-once reply tables
   within their bound and at most one retained reply per client; primary
   replication logs fully pruned.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Any, Iterable, Optional

from repro.cluster.store_node import COMPLETED_CAP
from repro.core.ids import ObjectId
from repro.core.linearizability import (
    HistoryRecorder,
    RecordedInvocation,
    check_linearizable,
    register_model,
)

#: the register model's methods (the chaos workload's ``Register`` type)
READ_METHODS = ("read",)
WRITE_METHODS = ("write",)
#: subset enumeration of maybe-applied writes is 2^n — cap n
MAX_INCOMPLETE_WRITES = 6


@dataclass
class Violation:
    """One consistency violation found after a run."""

    kind: str  # linearizability | divergence | stale-cache | bookkeeping
    target: str  # object id or node name
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.target}: {self.detail}"


@dataclass
class ConsistencyReport:
    """Everything the checker verified, and what it found."""

    violations: list[Violation] = field(default_factory=list)
    checked_objects: int = 0
    checked_operations: int = 0
    checked_nodes: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return (
                f"consistent: {self.checked_operations} operations over "
                f"{self.checked_objects} objects, {self.checked_nodes} nodes"
            )
        lines = [f"{len(self.violations)} violation(s):"]
        lines.extend(f"  {violation}" for violation in self.violations)
        return "\n".join(lines)


class ConsistencyChecker:
    """Validates a quiesced cluster plus its recorded client history."""

    def __init__(self, cluster: Any) -> None:
        self.cluster = cluster

    # -- entry point --------------------------------------------------------

    def check(
        self,
        recorder: Optional[HistoryRecorder] = None,
        object_ids: Iterable[ObjectId] = (),
        initial: Optional[dict[str, Any]] = None,
    ) -> ConsistencyReport:
        """Run every check; the cluster must already be quiesced."""
        report = ConsistencyReport()
        if recorder is not None:
            self.check_linearizability(recorder, report, initial=initial)
        self.check_convergence(object_ids, report)
        self.check_cache_coherence(report)
        self.check_bookkeeping(report)
        return report

    # -- 1. linearizability --------------------------------------------------

    def check_linearizability(
        self,
        recorder: HistoryRecorder,
        report: Optional[ConsistencyReport] = None,
        initial: Optional[dict[str, Any]] = None,
    ) -> ConsistencyReport:
        """Per-object register linearizability over the recorded history."""
        report = report if report is not None else ConsistencyReport()
        for object_id, records in recorder.by_object().items():
            report.checked_objects += 1
            report.checked_operations += len(records)
            initial_value = (initial or {}).get(object_id)
            violation = self._check_object_history(object_id, records, initial_value)
            if violation is not None:
                report.violations.append(violation)
        return report

    def _check_object_history(
        self, object_id: str, records: list[RecordedInvocation], initial_value: Any
    ) -> Optional[Violation]:
        completed = [r for r in records if r.completed]
        maybe_writes = [
            r for r in records if not r.completed and r.method in WRITE_METHODS
        ]
        unknown = [
            r for r in completed if r.method not in READ_METHODS + WRITE_METHODS
        ]
        if unknown:
            return Violation(
                "linearizability",
                object_id,
                f"register model cannot interpret method {unknown[0].method!r}",
            )
        if len(maybe_writes) > MAX_INCOMPLETE_WRITES:
            return Violation(
                "linearizability",
                object_id,
                f"{len(maybe_writes)} incomplete writes exceed the "
                f"checkable bound of {MAX_INCOMPLETE_WRITES}",
            )

        initial_state, apply_fn = register_model(
            {object_id: initial_value} if initial_value is not None else None
        )
        # An incomplete write may have taken effect at any point after its
        # invocation; re-time it as completing after every finite time so
        # it constrains nothing in the real-time order.
        horizon = 1.0 + max(
            [r.return_at for r in completed]
            + [r.invoke_at for r in records]
            + [0.0]
        )
        retimed = [replace(r, return_at=horizon, error=None) for r in maybe_writes]
        for included in self._write_subsets(retimed):
            if check_linearizable(completed + list(included), initial_state, apply_fn):
                return None
        return Violation(
            "linearizability",
            object_id,
            f"no legal linearisation of {len(completed)} completed operations "
            f"(tried {2 ** len(maybe_writes)} completions of "
            f"{len(maybe_writes)} incomplete writes)",
        )

    @staticmethod
    def _write_subsets(maybe_writes: list[RecordedInvocation]):
        # Smallest subsets first: "none of the lost writes applied" is the
        # most common reality, so the search usually ends immediately.
        for size in range(len(maybe_writes) + 1):
            yield from combinations(maybe_writes, size)

    # -- 2. replica convergence ----------------------------------------------

    def check_convergence(
        self,
        object_ids: Iterable[ObjectId],
        report: Optional[ConsistencyReport] = None,
    ) -> ConsistencyReport:
        """Byte-identical microshard state across live replica-set members."""
        report = report if report is not None else ConsistencyReport()
        _epoch, shard_map = self.cluster.current_config()
        for object_id in object_ids:
            replica_set = shard_map.shard_for(object_id)
            live_members = [
                name
                for name in replica_set.members
                if name in self.cluster.nodes and not self.cluster.nodes[name].crashed
            ]
            if len(live_members) < 2:
                continue  # nothing to compare
            dumps = {
                name: self.cluster.nodes[name].dump_object_state(object_id)
                for name in live_members
            }
            reference_name = live_members[0]
            reference = dumps[reference_name]
            for name in live_members[1:]:
                if dumps[name] != reference:
                    report.violations.append(
                        Violation(
                            "divergence",
                            str(object_id),
                            f"{name} diverges from {reference_name}: "
                            f"{self._describe_divergence(reference, dumps[name])}",
                        )
                    )
        return report

    @staticmethod
    def _describe_divergence(
        reference: list[tuple[bytes, bytes]], other: list[tuple[bytes, bytes]]
    ) -> str:
        ref_map, other_map = dict(reference), dict(other)
        missing = sorted(set(ref_map) - set(other_map))
        extra = sorted(set(other_map) - set(ref_map))
        differing = sorted(
            key for key in set(ref_map) & set(other_map) if ref_map[key] != other_map[key]
        )
        parts = []
        if missing:
            parts.append(f"{len(missing)} missing key(s)")
        if extra:
            parts.append(f"{len(extra)} extra key(s)")
        if differing:
            parts.append(f"{len(differing)} differing value(s) e.g. {differing[0]!r}")
        return ", ".join(parts) or "ordering differs"

    # -- 3. cache coherence ---------------------------------------------------

    def check_cache_coherence(
        self, report: Optional[ConsistencyReport] = None
    ) -> ConsistencyReport:
        """No node retains a cache entry invalidated-in-spirit but not in fact."""
        report = report if report is not None else ConsistencyReport()
        for node in self.cluster.live_nodes():
            cache = node.runtime.cache
            if cache is None:
                continue
            stale = cache.stale_entries(node.runtime.storage.get)
            if stale:
                object_id, method, _digest = stale[0]
                report.violations.append(
                    Violation(
                        "stale-cache",
                        node.name,
                        f"{len(stale)} cache entr{'y' if len(stale) == 1 else 'ies'} "
                        f"with stale read sets (missed invalidation), "
                        f"e.g. {method} on {object_id}",
                    )
                )
        return report

    # -- 4. bookkeeping -------------------------------------------------------

    def check_bookkeeping(
        self, report: Optional[ConsistencyReport] = None
    ) -> ConsistencyReport:
        """Quiescence + bounded-memory invariants on every live node."""
        report = report if report is not None else ConsistencyReport()
        _epoch, shard_map = self.cluster.current_config()
        for node in self.cluster.live_nodes():
            report.checked_nodes += 1
            name = node.name

            def flag(detail: str, name: str = name) -> None:
                report.violations.append(Violation("bookkeeping", name, detail))

            work = node.outstanding()
            if work.inflight:
                flag(f"{len(work.inflight)} requests still in flight")
            if work.remote_charges:
                flag(f"{work.remote_charges} remote charges still awaiting acks")
            if work.parked_reads:
                flag(
                    f"{work.parked_reads} replica reads still parked "
                    f"(the park deadline should have released them)"
                )
            for shard_id, primary, lease_expiry in node.replica_reads.leases():
                replica_set = shard_map.replica_set_or_none(shard_id)
                if (
                    replica_set is not None
                    and primary == replica_set.primary
                    and name in replica_set.members
                ):
                    continue  # a current-primary lease is legitimate
                if node.sim.now < lease_expiry:
                    flag(
                        f"unexpired replica-read lease for shard {shard_id} "
                        f"from {primary!r}, which no longer leads it"
                    )
            completed = node.endpoint.dedupe
            if len(completed) > COMPLETED_CAP:
                flag(
                    f"at-most-once table holds {len(completed)} replies, "
                    f"cap is {COMPLETED_CAP}"
                )
            for client, retained in completed.per_client_retained().items():
                if retained > 1:
                    flag(
                        f"{retained} replies retained for client {client} "
                        f"(watermark pruning should keep <= 1)"
                    )
            for shard_id, pipeline in node.pipelines.items():
                replica_set = shard_map.replica_set_or_none(shard_id)
                if replica_set is None or replica_set.primary != name:
                    continue  # deposed primary's pipeline; not reachable
                if pipeline.history:
                    flag(
                        f"primary replication log for shard {shard_id} retains "
                        f"{len(pipeline.history)} acked-and-done sequences"
                    )
                if not pipeline.idle:
                    flag(
                        f"replication pipeline for shard {shard_id} not idle: "
                        f"{len(pipeline._pending)} queued round(s), "
                        f"{pipeline.in_flight} in flight, "
                        f"{len(pipeline._waiters)} parked repl(y/ies)"
                    )
        return report
