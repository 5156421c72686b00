"""Ablation: consistent caching of deterministic read-only functions
(§4.2.2) — GetTimeline with the cache on must beat cache-off, at a high
hit rate, without ever serving stale results (stale-safety is covered by
tests/core/test_caching.py and the cluster cache tests)."""

from repro.bench.harness import AGGREGATED, run_retwis
from repro.workload.retwis_load import RetwisWorkload

from benchmarks.conftest import run_once


def test_cache_improves_readonly_throughput(benchmark, cal):
    def regenerate():
        off = run_retwis(AGGREGATED, RetwisWorkload.GET_TIMELINE, cal, enable_cache=False)
        on = run_retwis(AGGREGATED, RetwisWorkload.GET_TIMELINE, cal, enable_cache=True)
        return off, on

    off, on = run_once(benchmark, regenerate)
    hits = sum(n.runtime.stats.cache_hits for n in on.platform.nodes.values())
    lookups = hits + sum(n.runtime.stats.cache_misses for n in on.platform.nodes.values())
    hit_rate = hits / lookups if lookups else 0.0
    benchmark.extra_info["throughput_off"] = round(off.throughput, 1)
    benchmark.extra_info["throughput_on"] = round(on.throughput, 1)
    benchmark.extra_info["hit_rate"] = round(hit_rate, 3)

    assert on.throughput > 1.5 * off.throughput
    assert on.median_ms < off.median_ms
    assert hit_rate > 0.5
