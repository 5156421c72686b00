"""Ablation: Post cost vs follower fan-out (§5).

"A single job in the Post workload requires multiple function calls, the
initial function call and one for each follower, which results in lower
throughput compared to the other workloads."  Both variants slow down
with fan-out; the disaggregated baseline degrades faster because every
nested call pays dispatch overhead plus storage round trips.

Replication ships each Post's round as one payload that carries the post
once, so the bytes a backup receives per Post grow with follower keys,
not with follower copies of the post.
"""

from dataclasses import replace

from repro.bench.harness import (
    AGGREGATED,
    DISAGGREGATED,
    FANOUT_PROBE_TEXT_CHARS,
    post_replication_bytes,
    run_retwis,
)
from repro.workload.retwis_load import RetwisWorkload

from benchmarks.conftest import run_once


def test_post_throughput_falls_with_fanout(benchmark, cal):
    def regenerate():
        out = {}
        for follows in (4, 16):
            swept = replace(cal, avg_follows=follows)
            out[follows] = (
                run_retwis(AGGREGATED, RetwisWorkload.POST, swept),
                run_retwis(DISAGGREGATED, RetwisWorkload.POST, swept),
            )
        return out

    out = run_once(benchmark, regenerate)
    for follows, (agg, dis) in out.items():
        benchmark.extra_info[f"aggregated_f{follows}"] = round(agg.throughput, 1)
        benchmark.extra_info[f"disaggregated_f{follows}"] = round(dis.throughput, 1)

    agg_small, dis_small = out[4]
    agg_big, dis_big = out[16]
    # Fan-out hurts everyone...
    assert agg_big.throughput < agg_small.throughput
    assert dis_big.throughput < dis_small.throughput
    # ...and the aggregated variant keeps its advantage at high fan-out.
    assert agg_big.throughput > 1.6 * dis_big.throughput


def test_post_replication_bytes_grow_by_less_than_a_text_per_follower(benchmark, cal):
    counts = (5, 40)
    shipped = run_once(
        benchmark, lambda: {n: post_replication_bytes(cal, n) for n in counts}
    )
    for followers, size in shipped.items():
        benchmark.extra_info[f"aggregated_replication_bytes_per_post_f{followers}"] = round(
            size, 1
        )
    small, large = counts
    per_follower = (shipped[large] - shipped[small]) / (large - small)
    benchmark.extra_info["replication_bytes_per_extra_follower"] = round(per_follower, 1)
    assert 0 < per_follower < FANOUT_PROBE_TEXT_CHARS
