"""Build platforms, load datasets, run workloads — the experiment core."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.apps.retwis import user_type
from repro.bench.calibration import Calibration
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.messages import ReplicateWritesRange
from repro.serverless import ServerlessConfig, ServerlessPlatform
from repro.sim import Simulation
from repro.workload.clients import ClosedLoopDriver, DriverResult
from repro.workload.metrics import WorkloadReport
from repro.workload.retwis_load import RetwisDataset, RetwisParams, RetwisWorkload

#: workload name -> the invoked method whose completions we report
WORKLOAD_METHOD = {
    RetwisWorkload.POST: "create_post",
    RetwisWorkload.GET_TIMELINE: "get_timeline",
    RetwisWorkload.FOLLOW: "follow",
}

#: mutation-heavy mix shared by the group-commit and coalescing ablations
#: and the cost goldens: Posts and Follows dominate replication traffic
#: (where group commit coalesces rounds) while timeline reads keep the
#: cache and the primary read-barrier path exercised
REPLICATION_MIX = {
    RetwisWorkload.GET_TIMELINE: 0.3,
    RetwisWorkload.POST: 0.3,
    RetwisWorkload.FOLLOW: 0.4,
}

#: replication factor for the mix runs — the top of ``abl_replication``'s
#: sweep, so backup frames + acks are the dominant message class
REPLICATION_MIX_NODES = 5

#: read-heavy Retwis mix used by ``abl_replica_reads``: timeline reads
#: dominate, so the per-invocation message count is governed by where
#: reads are served (primary round trip + barrier vs. local at a backup)
READ_HEAVY_MIX = {
    RetwisWorkload.GET_TIMELINE: 0.8,
    RetwisWorkload.POST: 0.1,
    RetwisWorkload.FOLLOW: 0.1,
}

AGGREGATED = "aggregated"
DISAGGREGATED = "disaggregated"
VARIANTS = (AGGREGATED, DISAGGREGATED)


@dataclass
class RunResult:
    """One (variant, workload) measurement."""

    variant: str
    workload: str
    report: WorkloadReport
    driver: DriverResult
    platform: Any

    @property
    def throughput(self) -> float:
        return self.report.throughput_per_sec

    @property
    def median_ms(self) -> float:
        return self.report.median_ms

    @property
    def p99_ms(self) -> float:
        return self.report.p99_ms


def build_aggregated(sim: Simulation, cal: Calibration, **config_overrides) -> Cluster:
    """The LambdaStore deployment of §5: one 3-node replica set."""
    options = dict(
        num_storage_nodes=cal.num_storage_nodes,
        num_shards=1,
        cores_per_node=cal.cores_per_node,
        ms_per_fuel=cal.ms_per_fuel,
        net_median_ms=cal.net_median_ms,
        enable_cache=cal.enable_cache,
        replica_reads=cal.replica_reads,
        transport_coalescing=cal.transport_coalescing,
        seed=cal.seed,
    )
    options.update(config_overrides)
    return Cluster(sim, ClusterConfig(**options))


def build_disaggregated(sim: Simulation, cal: Calibration, **config_overrides) -> ServerlessPlatform:
    """The baseline of §5: one compute machine + 3 storage machines."""
    config = ServerlessConfig(
        num_compute_nodes=1,
        num_storage_nodes=cal.num_storage_nodes,
        cores_per_compute_node=cal.cores_per_node,
        cores_per_storage_node=cal.cores_per_node,
        ms_per_fuel=cal.ms_per_fuel,
        net_median_ms=cal.net_median_ms,
        transport_coalescing=cal.transport_coalescing,
        seed=cal.seed,
        **config_overrides,
    )
    return ServerlessPlatform(sim, config)


def build_platform(variant: str, sim: Simulation, cal: Calibration, **overrides) -> Any:
    if variant == AGGREGATED:
        return build_aggregated(sim, cal, **overrides)
    if variant == DISAGGREGATED:
        return build_disaggregated(sim, cal, **overrides)
    raise ValueError(f"unknown variant {variant!r}; pick one of {VARIANTS}")


def load_dataset(platform: Any, cal: Calibration) -> RetwisDataset:
    dataset = RetwisDataset(
        RetwisParams(
            num_accounts=cal.num_accounts,
            avg_follows=cal.avg_follows,
            zipf_exponent=cal.zipf_exponent,
            seed_posts_per_account=cal.seed_posts_per_account,
            seed=cal.seed,
        )
    )
    dataset.setup(platform)
    return dataset


def run_retwis(
    variant: str,
    workload_name: str,
    cal: Calibration,
    platform_overrides: Optional[dict] = None,
    num_clients: Optional[int] = None,
) -> RunResult:
    """One complete measurement: fresh simulation, platform, dataset, load."""
    sim = Simulation(seed=cal.seed)
    platform = build_platform(variant, sim, cal, **(platform_overrides or {}))
    dataset = load_dataset(platform, cal)
    workload = RetwisWorkload(dataset, workload_name)
    driver = ClosedLoopDriver(
        sim,
        platform,
        workload,
        num_clients=num_clients if num_clients is not None else cal.num_clients,
        duration_ms=cal.duration_ms,
        warmup_ms=cal.warmup_ms,
    )
    result = driver.run()
    method = WORKLOAD_METHOD[workload_name]
    report = result.reports.get(method)
    if report is None or report.completed == 0:
        raise RuntimeError(
            f"{variant}/{workload_name}: no completions recorded "
            f"(failures={result.failures})"
        )
    return RunResult(variant, workload_name, report, result, platform)


#: the fan-out probe's post text length: long enough that one copy per
#: follower would dominate a replication frame
FANOUT_PROBE_TEXT_CHARS = 1024
FANOUT_PROBE_POSTS = 8


def post_replication_bytes(cal: Calibration, followers: int) -> float:
    """Replication-frame bytes one backup receives per Post, for an
    author with exactly ``followers`` followers posting
    :data:`FANOUT_PROBE_TEXT_CHARS`-character texts one at a time on a
    fresh aggregated cluster (every frame then carries one Post round)."""
    sim = Simulation(seed=cal.seed)
    cluster = build_aggregated(sim, cal)
    cluster.register_type(user_type())
    fans = [
        cluster.create_object("User", initial={"name": f"fan-{index}"})
        for index in range(followers)
    ]
    author = cluster.create_object(
        "User",
        initial={"name": "author", "followers": {str(oid): {"since": 0} for oid in fans}},
    )
    cluster.start()
    backup = cluster.bootstrap_shard_map.shard_for(author).backups[0]
    shipped = 0

    def tap(message) -> None:
        nonlocal shipped
        if message.dst == backup and type(message.payload) is ReplicateWritesRange:
            shipped += message.size_bytes

    cluster.net.tap = tap
    client = cluster.client("fanout-probe")
    for post in range(FANOUT_PROBE_POSTS):
        text = f"post {post} ".ljust(FANOUT_PROBE_TEXT_CHARS, ".")
        # The reply waits for every backup's ack: the round has shipped.
        cluster.run_invoke(client, author, "create_post", text)
    return shipped / FANOUT_PROBE_POSTS


def _zipf_skewed(workload: Any, dataset: Any, exponent: float) -> Any:
    """Redirect every operation at a Zipf-sampled account, in place.

    Same wrap as the contention ablation: the op and args are drawn as
    usual, only the target object is re-pointed, so tenants contend on
    the same hot head objects.
    """
    from repro.workload.zipf import ZipfSampler

    sampler = ZipfSampler(len(dataset.accounts), exponent)
    original_next = workload.next_operation

    def skewed_next(rng):
        _oid, method_name, args = original_next(rng)
        target = dataset.accounts[sampler.sample(rng)]
        return target, method_name, args

    workload.next_operation = skewed_next  # type: ignore[method-assign]
    return workload


def probe_capacity(
    cal: Calibration, mix: Optional[dict] = None, zipf_exponent: float = 0.9
) -> float:
    """Closed-loop saturation throughput (invocations/sec) of the
    aggregated platform under ``mix`` — the reference point the open-loop
    overload sweep expresses its offered rates against.  Uses the same
    Zipf object skew as :func:`run_overload`, so "1.0× capacity" there
    means what it says."""
    from repro.workload.retwis_load import MixedRetwisWorkload

    sim = Simulation(seed=cal.seed)
    platform = build_aggregated(sim, cal)
    dataset = load_dataset(platform, cal)
    workload = MixedRetwisWorkload(dataset, dict(mix or REPLICATION_MIX))
    if zipf_exponent > 0:
        _zipf_skewed(workload, dataset, zipf_exponent)
    driver = ClosedLoopDriver(
        sim,
        platform,
        workload,
        num_clients=cal.num_clients,
        duration_ms=cal.duration_ms,
        warmup_ms=cal.warmup_ms,
    )
    result = driver.run()
    return sum(r.throughput_per_sec for r in result.reports.values())


def run_overload(
    cal: Calibration,
    tenant_rates: dict[str, float],
    admission: bool = False,
    tenant_rate_limit: float = 0.0,
    max_inflight: int = 0,
    request_timeout_ms: float = 40.0,
    max_attempts: int = 3,
    mix: Optional[dict] = None,
    tenant_mixes: Optional[dict] = None,
    zipf_exponent: float = 0.9,
    max_outstanding: int = 32,
):
    """Open-loop multi-tenant run against the aggregated platform.

    ``tenant_rates`` maps tenant name -> offered requests/sec.  Object
    selection is Zipf-skewed (``zipf_exponent``) over the accounts, so
    tenants contend on the same hot objects.  Short per-attempt deadlines
    + few attempts model latency-sensitive front-end traffic: a request
    that cannot finish in time is abandoned (its server-side cost is
    already sunk), which is what makes uncontrolled overload collapse
    goodput.  ``mix`` defaults to :data:`REPLICATION_MIX`;
    ``tenant_mixes`` gives individual tenants their own operation mix
    (unlisted tenants fall back to ``mix``).  Returns
    ``(OpenLoopResult, platform, sim)``.
    """
    from repro.workload.openloop import OpenLoopDriver
    from repro.workload.retwis_load import MixedRetwisWorkload

    overrides = {}
    if admission:
        overrides = dict(
            admission_control=True,
            tenant_rate_limit=tenant_rate_limit,
            max_inflight_requests=max_inflight,
        )
    sim = Simulation(seed=cal.seed)
    platform = build_aggregated(sim, cal, **overrides)
    dataset = load_dataset(platform, cal)

    def make_workload(the_mix: dict):
        workload = MixedRetwisWorkload(dataset, dict(the_mix))
        if zipf_exponent > 0:
            _zipf_skewed(workload, dataset, zipf_exponent)
        return workload

    if tenant_mixes:
        default_mix = dict(mix or REPLICATION_MIX)
        workload = {
            tenant: make_workload(tenant_mixes.get(tenant, default_mix))
            for tenant in tenant_rates
        }
    else:
        workload = make_workload(mix or REPLICATION_MIX)
    driver = OpenLoopDriver(
        sim,
        platform,
        workload,
        tenants=tenant_rates,
        duration_ms=cal.duration_ms,
        warmup_ms=cal.warmup_ms,
        max_outstanding=max_outstanding,
        client_kwargs={
            "request_timeout_ms": request_timeout_ms,
            "max_attempts": max_attempts,
        },
    )
    return driver.run(), platform, sim


def run_replication_mix(
    cal: Calibration,
    variant: str = AGGREGATED,
    mix: Optional[dict] = None,
    trace_sample_rate: Optional[float] = None,
    **config_overrides: Any,
) -> tuple[DriverResult, Any, Simulation]:
    """Run a Retwis mix closed-loop; returns (result, platform, sim).

    Used where replication traffic itself is the measurement (the
    group-commit, coalescing and replica-reads ablations, the cost goldens),
    so the caller gets the platform back to read ``net.stats`` alongside
    the reports.  Runs :data:`REPLICATION_MIX` (or ``mix``) at
    :data:`REPLICATION_MIX_NODES` replicas regardless of the preset.

    ``trace_sample_rate`` turns the span tracer on at that head-sampling
    rate (the cost goldens' traced pair); ``None`` leaves tracing off,
    the historical measurement condition.  Extra keyword arguments
    are platform-config overrides (e.g. ``ack_flush_ms=0.5`` for the
    coalescing sweep).
    """
    from dataclasses import replace

    from repro.workload.retwis_load import MixedRetwisWorkload

    cal = replace(cal, num_storage_nodes=REPLICATION_MIX_NODES)
    sim = Simulation(seed=cal.seed)
    platform = build_platform(variant, sim, cal, **config_overrides)
    if trace_sample_rate is not None:
        platform.enable_tracing(sample_rate=trace_sample_rate)
    dataset = load_dataset(platform, cal)
    workload = MixedRetwisWorkload(dataset, dict(mix or REPLICATION_MIX))
    driver = ClosedLoopDriver(
        sim,
        platform,
        workload,
        num_clients=cal.num_clients,
        duration_ms=cal.duration_ms,
        warmup_ms=cal.warmup_ms,
    )
    result = driver.run()
    if result.total_completed == 0:
        raise RuntimeError(
            f"{variant}/replication-mix: no completions recorded "
            f"(failures={result.failures})"
        )
    return result, platform, sim
