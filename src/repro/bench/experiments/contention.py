"""Cache and contention family: the consistent result cache (§4.2.2)
and per-object scheduling under skew (§4.2)."""

from __future__ import annotations

from repro.bench.calibration import CalibrationLike, resolve
from repro.bench.harness import AGGREGATED, RunResult, run_retwis
from repro.bench.report import format_comparison
from repro.workload.retwis_load import RetwisWorkload

#: GetTimeline-dominated mix whose Posts invalidate cached timelines
CACHE_INVALIDATION_MIX = {RetwisWorkload.GET_TIMELINE: 0.9, RetwisWorkload.POST: 0.1}

#: driver clients of the author-skew runs: queueing at a hot object can
#: exceed the default client deadline, and contention must surface as
#: latency, not client-side timeouts
CONTENTION_CLIENT = {"request_timeout_ms": 10_000.0}


def _hit_rate(result: RunResult) -> float:
    nodes = result.platform.nodes.values()
    hits = sum(n.runtime.stats.cache_hits for n in nodes)
    lookups = hits + sum(n.runtime.stats.cache_misses for n in nodes)
    return hits / lookups if lookups else 0.0


def abl_cache(cal: CalibrationLike = None) -> dict:
    """§4.2.2 — consistent caching of read-only functions.

    GetTimeline with the result cache on vs off, plus a run with
    concurrent Posts mixed in (invalidation traffic) to show hits degrade
    gracefully rather than serving stale data.
    """
    cal = resolve(cal)
    off = run_retwis(AGGREGATED, RetwisWorkload.GET_TIMELINE, cal, enable_cache=False)
    on = run_retwis(AGGREGATED, RetwisWorkload.GET_TIMELINE, cal, enable_cache=True)
    mixed = run_retwis(AGGREGATED, CACHE_INVALIDATION_MIX, cal, enable_cache=True)
    mixed_reads = mixed.driver.reports["get_timeline"]

    rows = [
        {
            "config": "cache off",
            "throughput_per_sec": round(off.throughput, 1),
            "median_ms": round(off.median_ms, 3),
            "hit_rate": 0.0,
        },
        {
            "config": "cache on",
            "throughput_per_sec": round(on.throughput, 1),
            "median_ms": round(on.median_ms, 3),
            "hit_rate": round(_hit_rate(on), 3),
        },
        {
            "config": "cache on + 10% posts (invalidations)",
            "throughput_per_sec": round(mixed_reads.throughput_per_sec, 1),
            "median_ms": round(mixed_reads.median_ms, 3),
            "hit_rate": round(_hit_rate(mixed), 3),
        },
    ]
    text = format_comparison("Ablation: consistent result cache (GetTimeline)", rows)
    return {"name": "abl_cache", "rows": rows, "text": text}


def abl_contention(cal: CalibrationLike = None) -> dict:
    """§4.2 — per-object scheduling under author skew.

    Posts by Zipf-skewed authors: the hotter the head object, the more
    the per-object lock serialises, trading throughput for conflict
    freedom (no aborts ever happen).
    """
    cal = resolve(cal)
    rows = []
    for exponent in (0.0, 0.6, 0.9, 1.2):
        result = run_retwis(
            AGGREGATED,
            RetwisWorkload.POST,
            cal,
            zipf_exponent=exponent,
            client_kwargs=CONTENTION_CLIENT,
        )
        rows.append(
            {
                "author_zipf_exponent": exponent,
                "throughput_per_sec": round(result.throughput, 1),
                "median_ms": round(result.median_ms, 3),
                "p99_ms": round(result.p99_ms, 3),
                "lock_contentions": sum(
                    n.locks.stats.contentions for n in result.platform.nodes.values()
                ),
            }
        )
    text = format_comparison("Ablation: Post throughput vs author skew (aggregated)", rows)
    return {"name": "abl_contention", "rows": rows, "text": text}
