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


@dataclass(frozen=True)
class Calibration:
    """Everything an experiment run needs to be reproducible."""

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

    # -- toggles ------------------------------------------------------------
    #: fig1/fig2 measure the execution architectures themselves; the
    #: consistent result cache (§4.2.2) is evaluated separately in
    #: ``abl_cache``, so the headline runs keep it off.
    enable_cache: bool = False
    #: lease-based replica reads (backups serve read-only invocations
    #: locally under a primary-granted lease).  The on/off delta is
    #: measured in ``abl_replica_reads``.
    replica_reads: bool = True
    #: transport egress coalescing + deferred-ack piggybacking
    #: (DESIGN.md §5j); off preserves one-message-per-send.  The on/off
    #: delta is measured in ``abl_coalescing``.
    transport_coalescing: bool = False


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

#: Table 1 — qualitative rows (the architecture comparison).
PAPER_TABLE1 = {
    "Latency": {
        "LambdaObjects": "Low (1-10ms)",
        "Custom services": "Very Low (<1ms)",
        "Conventional serverless": "High (>100ms)",
    },
    "Scalability": {
        "LambdaObjects": "High",
        "Custom services": "Implementation-specific",
        "Conventional serverless": "High",
    },
    "Elasticity": {
        "LambdaObjects": "Medium",
        "Custom services": "Low",
        "Conventional serverless": "High",
    },
    "Consistency": {
        "LambdaObjects": "Strong",
        "Custom services": "Implementation-specific",
        "Conventional serverless": "Weak",
    },
    "Developer effort": {
        "LambdaObjects": "Low",
        "Custom services": "High",
        "Conventional serverless": "Low",
    },
    "Resource utilization": {
        "LambdaObjects": "High",
        "Custom services": "Low",
        "Conventional serverless": "High",
    },
}
