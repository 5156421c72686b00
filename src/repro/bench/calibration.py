"""The shared cost model and experiment presets.

Both variants (aggregated LambdaStore and the disaggregated baseline) use
the *same* constants — CPU cores, fuel-to-time rate, network latency
distribution (its shape is :mod:`repro.sim.network`'s) — so differences
in results come from the architectures, not the models.  Values are calibrated so the aggregated variant's absolute
numbers land in the range the paper reports on its CloudLab testbed
(2× Xeon Silver 4114 = 20 physical cores/machine, single-rack network).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union


@dataclass(frozen=True)
class Calibration:
    """The cost model and workload every experiment run shares.

    Platform switches (the result cache, replica reads, coalescing) are
    not calibration: an experiment that toggles one passes it to
    :func:`repro.bench.harness.build_platform` as a ``ClusterConfig`` /
    ``ServerlessConfig`` override.
    """

    # -- hardware (paper §5: 4 machines, 20 cores each, one rack) ------------
    num_storage_nodes: int = 3
    cores_per_node: int = 20
    ms_per_fuel: float = 0.005
    net_median_ms: float = 0.08

    # -- workload (paper §5: 10,000 accounts, 100 concurrent clients) ---------
    num_accounts: int = 10_000
    avg_follows: int = 20
    #: follower-graph skew.  The paper's Post latencies stay bounded
    #: (≤ ~35 ms at p99), which rules out heavy-tailed celebrity accounts
    #: — a Zipf-1.0 graph at 10k accounts gives rank-0 ~20,000 followers
    #: and second-long fan-outs.  The headline runs therefore use a
    #: uniform graph (~avg_follows each); skew is studied explicitly in
    #: abl_contention and abl_fanout.
    zipf_exponent: float = 0.0
    seed_posts_per_account: int = 10
    num_clients: int = 100
    duration_ms: float = 2_000.0
    warmup_ms: float = 400.0
    seed: int = 1


#: presets: "quick" keeps pytest-benchmark runs fast; "full" matches §5.
_PRESETS = {
    "quick": Calibration(
        num_accounts=1_000,
        num_clients=40,
        duration_ms=400.0,
        warmup_ms=100.0,
        avg_follows=10,
    ),
    "full": Calibration(),
}


def preset(name: str = "quick", **overrides) -> Calibration:
    """Look up a preset, optionally overriding fields."""
    try:
        base = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; pick one of {sorted(_PRESETS)}") from None
    return replace(base, **overrides) if overrides else base


#: what an experiment accepts as its calibration: a preset name, a
#: :class:`Calibration`, or ``None`` for the quick preset
CalibrationLike = Union[str, Calibration, None]


def resolve(cal: CalibrationLike = None) -> Calibration:
    """The calibration an experiment runs at."""
    if cal is None:
        return preset("quick")
    if isinstance(cal, str):
        return preset(cal)
    return cal


#: Figure 1 of the paper — absolute throughput (jobs/s) per workload.
PAPER_FIG1 = {
    "Post": {"aggregated": 1309, "disaggregated": 492},
    "GetTimeline": {"aggregated": 30799, "disaggregated": 9106},
    "Follow": {"aggregated": 55600, "disaggregated": 11355},
}

#: Figure 2 — the paper plots median + p99 latency bars (exact values are
#: not tabulated in the text); the claims to reproduce are recorded here.
PAPER_FIG2_CLAIMS = [
    "aggregated median latency at least 50% below disaggregated, per workload",
    "disaggregated shows (much) higher p99 variance",
    "all latencies in the low-millisecond range (no WAN, same rack)",
]

#: Table 1 — the architecture comparison's columns and qualitative rows
PAPER_TABLE1_COLUMNS = ("LambdaObjects", "Custom services", "Conventional serverless")
PAPER_TABLE1 = {
    "Latency": ("Low (1-10ms)", "Very Low (<1ms)", "High (>100ms)"),
    "Scalability": ("High", "Implementation-specific", "High"),
    "Elasticity": ("Medium", "Low", "High"),
    "Consistency": ("Strong", "Implementation-specific", "Weak"),
    "Developer effort": ("Low", "High", "Low"),
    "Resource utilization": ("High", "Low", "High"),
}
