"""Small-config cluster builder + single-schedule executor.

The model checker collapses protocol timing so that message *order* is
the only degree of freedom left: zero constant latency, infinite
bandwidth, zero fuel cost, zero group-commit flush delay, and clients
with no think time put every data-plane send and its competing
deliveries at the same simulated instant, where the
:class:`~repro.mc.policy.McPolicy` choice points cover all reorderings.
Timers (ack watchdogs, lease expiries, heartbeats) fire at later,
internally-quiescent instants and stay deterministic.  Failure
detection is disabled — crash exploration studies the §3.1 data-plane
guarantees under fail-stop + recovery, not failover (the chaos suite
covers failover under randomized schedules).

One :func:`run_schedule` call replays a schedule prefix, extends it with
recorded default decisions, recovers any crashed nodes, quiesces, and
asserts the §3.1 guarantees via :class:`repro.chaos.ConsistencyChecker`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.chaos.checker import ConsistencyChecker, ConsistencyReport
from repro.chaos.workload import register_type
from repro.cluster import Cluster, ClusterConfig
from repro.core.linearizability import HistoryRecorder
from repro.errors import InvocationFailed, RequestTimeout, SimulationError
from repro.mc.policy import McPolicy, SleepBlocked, TraceLimit
from repro.sim import Simulation
from repro.sim.network import ConstantLatency

#: payload kinds whose delivery order the checker explores.  Heartbeats
#: and coordinator traffic are deterministic bookkeeping with failure
#: detection off, so they run eagerly as internal work.
DEFAULT_CHOICE_KINDS = (
    "ClientRequest",
    "ClientReply",
    "ReplicateWritesRange",
    "ReplicateAck",
    "LeaseQuery",
    "LeaseGrant",
    "RemoteCharge",
    "RemoteChargeAck",
)


@dataclass(frozen=True)
class McConfig:
    """One model-checking configuration (kept small on purpose)."""

    num_nodes: int = 2
    num_shards: int = 1
    num_objects: int = 2
    num_clients: int = 2
    ops_per_client: int = 2
    seed: int = 0
    replica_reads: bool = False
    transport_coalescing: bool = False
    coalesce_window_ms: float = 0.0
    #: fail-stop budget per run; crash points only branch while it lasts
    max_crashes: int = 0
    #: absolute simulated-ms bound on the client phase
    horizon_ms: float = 2_000.0
    settle_ms: float = 5.0
    request_timeout_ms: float = 30.0
    max_attempts: int = 2
    seeded_bugs: tuple = ()
    choice_kinds: tuple = DEFAULT_CHOICE_KINDS
    #: optional per-client op-plan override: a tuple (one entry per
    #: client) of tuples of ``(object_index, method, args)``.  None uses
    #: the default write-own/read-neighbour cross (see client_plans).
    plans: Optional[tuple] = None
    #: per-run cap on recorded decision points (runaway backstop)
    max_decisions: int = 600


@dataclass
class McRunResult:
    """Everything the explorer needs from one executed schedule."""

    status: str  # "checked" | "sleep-blocked" | "truncated"
    #: decision points, 1:1 with ``chosen``
    trace: list
    #: full decision sequence taken (replayed prefix + free choices)
    chosen: list
    #: length of the replayed prefix (explorer expands from here on)
    prefix_len: int
    report: Optional[ConsistencyReport] = None
    violations: list = field(default_factory=list)
    completed_ops: int = 0
    gave_up: int = 0
    quiesced: bool = False


def client_plans(config: McConfig) -> list:
    """Deterministic per-client op lists: each client alternates writing
    its own register (uniquely-valued) and reading its neighbour's — the
    classic cross pattern that makes reordering bugs observable."""
    if config.plans is not None:
        return [list(plan) for plan in config.plans]
    plans = []
    for c in range(config.num_clients):
        ops = []
        for j in range(config.ops_per_client):
            if j % 2 == 0:
                ops.append((c % config.num_objects, "write", (f"c{c}.{j}",)))
            else:
                ops.append(((c + 1) % config.num_objects, "read", ()))
        plans.append(ops)
    return plans


def build_cluster(config: McConfig, sim: Simulation) -> Cluster:
    cluster = Cluster(
        sim,
        ClusterConfig(
            seed=config.seed,
            num_storage_nodes=config.num_nodes,
            num_shards=config.num_shards,
            num_coordinators=1,
            ms_per_fuel=0.0,
            bandwidth_mbps=float("inf"),
            auto_failure_detection=False,
            group_commit_flush_ms=0.0,
            replica_reads=config.replica_reads,
            transport_coalescing=config.transport_coalescing,
            coalesce_window_ms=config.coalesce_window_ms,
            ack_flush_ms=0.0,
            seeded_bugs=config.seeded_bugs,
        ),
    )
    # Zero constant latency: delivery lands at the sending instant, so
    # competing deliveries meet at the same decision point.
    cluster.net.latency = ConstantLatency(0.0)
    return cluster


def run_schedule(
    config: McConfig,
    schedule: Iterable = (),
    *,
    sleep: Iterable = (),
    use_sleep: bool = True,
    collect_fingerprints: bool = True,
) -> McRunResult:
    """Execute one schedule end to end and check the §3.1 guarantees."""
    schedule = list(schedule)
    sim = Simulation(seed=config.seed)
    cluster = build_cluster(config, sim)
    cluster.register_type(register_type())
    object_ids = [
        cluster.create_object("Register", initial={"value": 0})
        for _ in range(config.num_objects)
    ]
    initial = {str(oid): 0 for oid in object_ids}
    recorder = HistoryRecorder()

    def fingerprint(extra: tuple) -> int:
        return _state_fingerprint(cluster, recorder, object_ids, extra)

    policy = McPolicy(
        schedule=schedule,
        sleep=sleep,
        use_sleep=use_sleep,
        choice_kinds=config.choice_kinds,
        is_crashed=lambda host: cluster.net.host(host).crashed,
        crash_fn=cluster.crash_node,
        max_crashes=config.max_crashes,
        fingerprint_fn=fingerprint if collect_fingerprints else None,
        max_decisions=config.max_decisions,
    )
    sim.set_policy(policy)
    cluster.mc_crash_probe = policy.probe_crash
    cluster.start()

    gave_up = [0]

    def client_loop(index: int, plan: list):
        client = cluster.client(
            f"mc-{index}",
            request_timeout_ms=config.request_timeout_ms,
            max_attempts=config.max_attempts,
            recorder=recorder,
        )
        for object_index, method_name, args in plan:
            try:
                yield from client.invoke(
                    object_ids[object_index], method_name, *args
                )
            except (RequestTimeout, InvocationFailed):
                gave_up[0] += 1

    processes = [
        sim.process(client_loop(index, plan), name=f"mc.client.{index}")
        for index, plan in enumerate(client_plans(config))
    ]

    def result(status: str, **kwargs: Any) -> McRunResult:
        return McRunResult(
            status=status,
            trace=policy.trace,
            chosen=policy.chosen,
            prefix_len=len(schedule),
            gave_up=gave_up[0],
            **kwargs,
        )

    try:
        sim.run_until_triggered(sim.all_of(processes), limit=config.horizon_ms)
        # The client phase is over: no more crash branching (the settle
        # phase must converge so the checker sees a quiescent cluster).
        policy.crashes_remaining = 0
        for node in list(cluster.nodes.values()):
            if node.crashed:
                cluster.recover_node(node.name)
        quiesced = cluster.quiesce(settle_ms=config.settle_ms, max_ms=1_000.0)
    except SleepBlocked:
        return result("sleep-blocked")
    except (TraceLimit, SimulationError):
        # horizon exceeded / deadlocked client phase: still expandable,
        # but not checkable — the explorer counts these separately.
        return result("truncated")

    report = ConsistencyChecker(cluster).check(
        recorder=recorder, object_ids=object_ids, initial=initial
    )
    violations = [
        str(v) for v in report.violations
    ]
    if not quiesced:
        violations.append("bookkeeping: cluster failed to quiesce after recovery")
    completed = sum(1 for r in recorder.invocations() if r.completed)
    return result(
        "checked",
        report=report,
        violations=violations,
        completed_ops=completed,
        quiesced=quiesced,
    )


def _state_fingerprint(
    cluster: Cluster, recorder: HistoryRecorder, object_ids: list, extra: tuple
) -> int:
    """Hash of everything §3.1-relevant in the cluster + observed history.

    Used only in-process for (fingerprint, alternative) deduplication, so
    Python's randomized ``hash`` is fine; collisions merely cost a little
    pruning soundness headroom (see the DESIGN.md §5k caveat — pruning by
    fingerprint is optional and off for the exhaustiveness claims).
    """
    node_parts = []
    for name in sorted(cluster.nodes):
        node = cluster.nodes[name]
        objects = tuple(
            tuple(node.dump_object_state(object_id)) for object_id in object_ids
        )
        appliers = tuple(
            sorted(
                (shard_id, applier.primary, applier.applied_through, applier.pending_count)
                for shard_id, applier in node.backup_appliers.items()
            )
        )
        pipelines = tuple(
            sorted(
                (
                    shard_id,
                    pipeline.settled_through,
                    pipeline.highest_flushed,
                    pipeline.in_flight,
                    len(pipeline._pending),
                    tuple(sorted(pipeline._waiters)),
                    tuple(sorted(pipeline.acked_through.items())),
                )
                for shard_id, pipeline in node.pipelines.items()
            )
        )
        cache = node.runtime.cache
        work = node.outstanding()
        cache_keys = (
            tuple(sorted(repr(key) for key in cache._entries)) if cache is not None else ()
        )
        node_parts.append(
            (
                name,
                node.crashed,
                objects,
                appliers,
                pipelines,
                cache_keys,
                work.inflight,
                work.parked_reads,
                work.pending_acks,
            )
        )
    history = tuple(
        (
            record.client,
            str(record.object_id),
            record.method,
            repr(record.args),
            record.completed,
            repr(record.result),
            record.error,
        )
        for record in recorder.invocations()
    )
    return hash((cluster.sim.now, tuple(node_parts), history, extra))
