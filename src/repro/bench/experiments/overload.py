"""Overload family: goodput, fairness and read protection under an
open-loop write storm, with admission control on and off (DESIGN.md
§5h)."""

from __future__ import annotations

from typing import Optional

from repro.bench.calibration import Calibration, CalibrationLike, resolve
from repro.bench.harness import (
    AGGREGATED,
    build_aggregated,
    load_dataset,
    run_retwis,
    zipf_skewed,
)
from repro.bench.report import format_comparison
from repro.sim import Simulation
from repro.workload.openloop import OpenLoopDriver
from repro.workload.retwis_load import MixedRetwisWorkload, RetwisWorkload

#: open-loop sweep points, as multiples of the probed saturation rate
OVERLOAD_MULTIPLIERS = (1.0, 2.0, 3.0, 4.0)

#: the sweep's traffic: an all-Post write storm on Zipf-hot authors —
#: the workload where uncontrolled overload actually collapses (posts
#: serialize on per-object locks and funnel through the primary; reads
#: would spread across replicas and mask the cliff)
OVERLOAD_STORM_MIX = {RetwisWorkload.POST: 1.0}

#: object skew of the storm and its capacity probe: tenants contend on
#: the same hot head objects
HOT_OBJECT_ZIPF = 0.9

#: tenants sharing the cluster in the overload sweep
OVERLOAD_TENANTS = 4

#: per-tenant admitted-rate limit, as a fraction of the tenant's fair
#: share of probed capacity (slightly under 1.0 so the admitted load is
#: sustainable and queues stay bounded)
OVERLOAD_RATE_HEADROOM = 0.8

#: goodput counts only completions at or under this latency — under
#: overload "finished eventually, long past the deadline budget" is not
#: useful work.  ~2x the saturated closed-loop p99, so the SLO only
#: bites when queues actually grow.
OVERLOAD_SLO_MS = 50.0

#: per-tenant client-pool bound in the open-loop driver: large enough
#: that uncontrolled queues genuinely build (the collapse mechanism),
#: small enough to keep the event count sane
OVERLOAD_OUTSTANDING = 256

#: open-loop clients: short per-attempt deadlines and few attempts model
#: latency-sensitive front-end traffic — a request that cannot finish in
#: time is abandoned (its server-side cost is already sunk), which is
#: what makes uncontrolled overload collapse goodput
OVERLOAD_CLIENT = {"request_timeout_ms": 40.0, "max_attempts": 3}


def run_overload(
    cal: Calibration,
    tenant_rates: dict[str, float],
    tenant_mixes: Optional[dict] = None,
    **platform_overrides,
):
    """Open-loop multi-tenant run against the aggregated platform.

    ``tenant_rates`` maps tenant name -> offered requests/sec.  Every
    tenant shares one :data:`OVERLOAD_STORM_MIX` workload unless
    ``tenant_mixes`` gives each its own mix.  Targets are Zipf-skewed
    (:data:`HOT_OBJECT_ZIPF`), so tenants contend on the same hot
    objects.  Admission control is a platform override
    (``admission_control=True`` plus its limits).  Returns
    ``(OpenLoopResult, platform)``.
    """
    sim = Simulation(seed=cal.seed)
    platform = build_aggregated(sim, cal, **platform_overrides)
    dataset = load_dataset(platform, cal)

    def storm(mix: dict):
        return zipf_skewed(MixedRetwisWorkload(dataset, dict(mix)), dataset, HOT_OBJECT_ZIPF)

    if tenant_mixes:
        workload = {tenant: storm(tenant_mixes[tenant]) for tenant in tenant_rates}
    else:
        workload = storm(OVERLOAD_STORM_MIX)
    driver = OpenLoopDriver(
        sim,
        platform,
        workload,
        tenants=tenant_rates,
        duration_ms=cal.duration_ms,
        warmup_ms=cal.warmup_ms,
        max_outstanding=OVERLOAD_OUTSTANDING,
        client_kwargs=OVERLOAD_CLIENT,
    )
    return driver.run(), platform


def _shed(platform) -> int:
    return sum(node.stats.shed_requests for node in platform.nodes.values())


def _sweep_rows(storm, fair_share: float) -> list[dict]:
    """Every tenant at ``mult`` times its fair share, admission off/on."""
    rows = []
    for mult in OVERLOAD_MULTIPLIERS:
        for admitted in (False, True):
            result, platform = storm(
                {f"tenant-{i}": mult * fair_share for i in range(OVERLOAD_TENANTS)}, admitted
            )
            tenants = result.tenants.values()
            p99 = [t.latency(0.99) for t in tenants if t.latencies_ms]
            rows.append(
                {
                    "offered_x_capacity": mult,
                    "admission": "on" if admitted else "off",
                    "offered_per_sec": round(result.offered_per_sec, 1),
                    "goodput_per_sec": round(result.goodput_per_sec(OVERLOAD_SLO_MS), 1),
                    "completed_per_sec": round(result.goodput_per_sec(), 1),
                    "failed": sum(t.failed for t in tenants),
                    "starved": sum(t.starved for t in tenants),
                    "shed_by_server": _shed(platform),
                    "p99_ms": round(max(p99), 3) if p99 else float("nan"),
                    "fairness_index": round(result.fairness_index(OVERLOAD_SLO_MS), 3),
                }
            )
    return rows


def _fairness_rows(storm, fair_share: float) -> list[dict]:
    """Three tenants post at their fair share, one at 3x it."""
    rates = {f"tenant-{i}": fair_share for i in range(OVERLOAD_TENANTS - 1)}
    rates["aggressive"] = 3.0 * fair_share
    rows = []
    for admitted in (False, True):
        result, _platform = storm(rates, admitted)
        duration = result.duration_ms
        rows.append(
            {
                "admission": "on" if admitted else "off",
                "fairness_index": round(result.fairness_index(OVERLOAD_SLO_MS), 3),
                "aggressive_goodput": round(
                    result.tenants["aggressive"].goodput_per_sec(duration, OVERLOAD_SLO_MS),
                    1,
                ),
                "others_goodput": round(
                    sum(
                        t.goodput_per_sec(duration, OVERLOAD_SLO_MS)
                        for name, t in result.tenants.items()
                        if name != "aggressive"
                    ),
                    1,
                ),
            }
        )
    return rows


def _protect_rows(cal: Calibration, fair_share: float) -> list[dict]:
    """A reader tenant sharing the primary (replica reads off) with three
    write-storm tenants, with only the pressure gate on (no rate limit,
    no concurrency cap), so the delta is purely that gate."""
    rates = {"readers": 2.0 * fair_share}
    mixes = {"readers": {RetwisWorkload.GET_TIMELINE: 1.0}}
    for i in range(OVERLOAD_TENANTS - 1):
        rates[f"writer-{i}"] = 3.0 * fair_share
        mixes[f"writer-{i}"] = OVERLOAD_STORM_MIX
    rows = []
    for label, gate in (
        ("off", {}),
        (
            "on (protect-reads, pressure only)",
            dict(admission_control=True, tenant_rate_limit=0.0, max_inflight_requests=0),
        ),
    ):
        result, platform = run_overload(cal, rates, mixes, replica_reads=False, **gate)
        duration = result.duration_ms
        readers = result.tenants["readers"]
        writers = [t for name, t in result.tenants.items() if name != "readers"]
        rows.append(
            {
                "admission": label,
                "read_goodput": round(readers.goodput_per_sec(duration, OVERLOAD_SLO_MS), 1),
                "read_p99_ms": round(readers.latency(0.99), 3),
                "write_goodput": round(
                    sum(t.goodput_per_sec(duration, OVERLOAD_SLO_MS) for t in writers),
                    1,
                ),
                "shed_by_server": _shed(platform),
            }
        )
    return rows


def abl_overload(cal: CalibrationLike = None) -> dict:
    """DESIGN.md §5h — goodput under overload, admission control on/off.

    Open-loop Poisson write-storm arrivals from
    :data:`OVERLOAD_TENANTS` tenants on Zipf-hot objects, swept at
    multiples of the closed-loop saturation rate.  Without admission
    control, offered load past saturation grows the primary's queues
    without bound: latencies blow through the :data:`OVERLOAD_SLO_MS`
    budget, the (already-sunk) server-side work is wasted, and goodput
    collapses toward zero.  With per-tenant token buckets + concurrency
    caps + queue backpressure, the excess is shed at arrival with a
    server-advised retry delay, queues stay bounded, and goodput
    plateaus near capacity.

    The fairness block keeps the storm but has one aggressive tenant
    offering 3x its fair share: without admission it crowds the others
    out of the lock queues (Jain's index sinks); with per-tenant buckets
    each tenant keeps its share.

    The protect-reads block mixes a reader tenant into the storm with
    replica reads disabled (so reads share the primary) and turns on
    *only* the lock-queue backpressure gate: shedding mutating requests
    when scheduler queues deepen keeps read p99 flat through the storm —
    and raises write goodput too, because admitted writes stay inside
    the SLO instead of aging out in queues.
    """
    cal = resolve(cal)
    # The closed-loop saturation rate under the same skewed storm, so
    # "1.0x capacity" in the sweep means what it says.
    capacity = run_retwis(
        AGGREGATED, OVERLOAD_STORM_MIX, cal, zipf_exponent=HOT_OBJECT_ZIPF
    ).total_throughput
    fair_share = capacity / OVERLOAD_TENANTS
    admission = dict(
        admission_control=True,
        tenant_rate_limit=OVERLOAD_RATE_HEADROOM * fair_share,
        max_inflight_requests=8 * cal.cores_per_node,
    )

    def storm(rates: dict, admitted: bool):
        return run_overload(cal, rates, **(admission if admitted else {}))

    rows = _sweep_rows(storm, fair_share)
    fairness_rows = _fairness_rows(storm, fair_share)
    protect_rows = _protect_rows(cal, fair_share)
    text = "\n\n".join(
        (
            format_comparison(
                f"Ablation: goodput under a write storm "
                f"(open loop, {OVERLOAD_TENANTS} tenants, SLO {OVERLOAD_SLO_MS:.0f}ms, "
                f"probed capacity {capacity:.0f}/s)",
                rows,
            ),
            format_comparison(
                "Fairness: write storm, one tenant offering 3x its share", fairness_rows
            ),
            format_comparison(
                "Protect-reads: reader tenant through a write storm (primary reads)",
                protect_rows,
            ),
        )
    )
    return {
        "name": "abl_overload",
        "rows": rows,
        "fairness_rows": fairness_rows,
        "protect_rows": protect_rows,
        "capacity_per_sec": round(capacity, 1),
        "slo_ms": OVERLOAD_SLO_MS,
        "text": text,
    }
