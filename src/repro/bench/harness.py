"""Build platforms, load datasets, run workloads — the experiment core."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Union

from repro.apps.retwis import user_type
from repro.bench.calibration import Calibration
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.messages import ReplicateWritesRange
from repro.serverless import ServerlessConfig, ServerlessPlatform
from repro.sim import Simulation
from repro.workload.clients import ClosedLoopDriver, DriverResult
from repro.workload.metrics import WorkloadReport
from repro.workload.retwis_load import (
    MixedRetwisWorkload,
    RetwisDataset,
    RetwisParams,
    RetwisWorkload,
)
from repro.workload.zipf import ZipfSampler

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

#: replication factor (``Calibration.num_storage_nodes``) of the mix
#: ablations and the cost goldens — the top of ``abl_replication``'s
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
    """One closed-loop run: the driver's reports plus the live platform
    and simulation (both ``None`` once shipped back from a worker
    process — they do not pickle)."""

    variant: str
    #: the :class:`RetwisWorkload` name, or ``"mix"`` for a mixed run
    workload: str
    driver: DriverResult
    platform: Any = None
    sim: Optional[Simulation] = None

    @property
    def report(self) -> WorkloadReport:
        """The named workload's report (a mix has one per method)."""
        return self.driver.reports[WORKLOAD_METHOD[self.workload]]

    @property
    def throughput(self) -> float:
        return self.report.throughput_per_sec

    @property
    def median_ms(self) -> float:
        return self.report.median_ms

    @property
    def p99_ms(self) -> float:
        return self.report.p99_ms

    @property
    def total_throughput(self) -> float:
        """Completions per second summed over every method."""
        return sum(report.throughput_per_sec for report in self.driver.reports.values())


def build_aggregated(sim: Simulation, cal: Calibration, **config_overrides) -> Cluster:
    """The LambdaStore deployment of §5: one 3-node replica set.

    fig1/fig2 measure the execution architectures themselves; the
    consistent result cache (§4.2.2) is evaluated separately in
    ``abl_cache``, so the cache stays off unless overridden.
    """
    options = dict(
        num_storage_nodes=cal.num_storage_nodes,
        num_shards=1,
        cores_per_node=cal.cores_per_node,
        ms_per_fuel=cal.ms_per_fuel,
        net_median_ms=cal.net_median_ms,
        enable_cache=False,
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


def zipf_skewed(workload: Any, dataset: RetwisDataset, exponent: float) -> Any:
    """Redirect every operation at a Zipf-sampled account, in place.

    The op and args are drawn as usual; only the target object is
    re-pointed (at exponent 0 uniformly, through the same draws).
    """
    sampler = ZipfSampler(len(dataset.accounts), exponent)
    original_next = workload.next_operation

    def skewed_next(rng):
        _oid, method_name, args = original_next(rng)
        return dataset.accounts[sampler.sample(rng)], method_name, args

    workload.next_operation = skewed_next  # type: ignore[method-assign]
    return workload


def run_retwis(
    variant: str,
    workload: Union[str, dict],
    cal: Calibration,
    *,
    zipf_exponent: Optional[float] = None,
    client_kwargs: Optional[dict] = None,
    trace_sample_rate: Optional[float] = None,
    **platform_overrides: Any,
) -> RunResult:
    """One closed-loop measurement: fresh simulation, platform, dataset, load.

    ``workload`` is a :class:`RetwisWorkload` name or a
    :class:`MixedRetwisWorkload` mix (workload name -> weight, e.g.
    :data:`REPLICATION_MIX`).  ``zipf_exponent`` re-targets every
    operation with :func:`zipf_skewed`; ``None`` keeps the workload's own
    targets.  ``client_kwargs`` reach every driver client (e.g. a longer
    ``request_timeout_ms``).  ``trace_sample_rate`` attaches the span
    tracer at that head-sampling rate before the dataset loads; ``None``
    leaves tracing off.  The remaining keyword arguments are
    platform-config overrides for :func:`build_platform`.  Raises if the
    run completed nothing.
    """
    sim = Simulation(seed=cal.seed)
    platform = build_platform(variant, sim, cal, **platform_overrides)
    if trace_sample_rate is not None:
        platform.enable_tracing(sample_rate=trace_sample_rate)
    dataset = load_dataset(platform, cal)
    if isinstance(workload, str):
        name, generator = workload, RetwisWorkload(dataset, workload)
    else:
        name, generator = "mix", MixedRetwisWorkload(dataset, dict(workload))
    if zipf_exponent is not None:
        zipf_skewed(generator, dataset, zipf_exponent)
    driver = ClosedLoopDriver(
        sim,
        platform,
        generator,
        num_clients=cal.num_clients,
        duration_ms=cal.duration_ms,
        warmup_ms=cal.warmup_ms,
        client_kwargs=client_kwargs,
    )
    result = driver.run()
    if result.total_completed == 0:
        raise RuntimeError(
            f"{variant}/{name}: no completions recorded (failures={result.failures})"
        )
    return RunResult(variant, name, result, platform, sim)


def startup_latencies(cal: Calibration, variant: str, **platform_overrides) -> list[float]:
    """The first two invocation latencies on a fresh, tiny platform —
    the cold-start probe behind Table 1 and ``abl_coldstart``."""
    small = replace(cal, num_accounts=10)
    sim = Simulation(seed=cal.seed)
    platform = build_platform(variant, sim, small, **platform_overrides)
    dataset = load_dataset(platform, small)
    client = platform.client("probe")
    for account in dataset.accounts[:2]:
        platform.run_invoke(client, account, "get_timeline", 10)
    return [latency for latency, _method in client.completions]


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
