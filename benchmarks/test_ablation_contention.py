"""Ablation: per-object scheduling under skew (§4.2).

Skewing Post authors toward a few hot objects makes the per-object lock
serialise more work: contention rises and tail latency grows, but no
invocation ever aborts — "invocation linearizability prevents aborts due
to concurrency" (§3.2)."""

from repro.bench.experiments.contention import CONTENTION_CLIENT
from repro.bench.harness import AGGREGATED, run_retwis
from repro.workload.retwis_load import RetwisWorkload

from benchmarks.conftest import run_once


def test_contention_grows_with_author_skew(benchmark, cal):
    def run(exponent):
        return run_retwis(
            AGGREGATED,
            RetwisWorkload.POST,
            cal,
            zipf_exponent=exponent,
            client_kwargs=CONTENTION_CLIENT,
        )

    def regenerate():
        return run(0.0), run(1.2)

    uniform, skewed = run_once(benchmark, regenerate)

    def contention_rate(result):
        acquisitions = sum(
            n.locks.stats.acquisitions for n in result.platform.nodes.values()
        )
        contended = sum(n.locks.stats.contentions for n in result.platform.nodes.values())
        return contended / acquisitions if acquisitions else 0.0

    benchmark.extra_info["uniform_contention_rate"] = round(contention_rate(uniform), 3)
    benchmark.extra_info["skewed_contention_rate"] = round(contention_rate(skewed), 3)
    benchmark.extra_info["uniform_p99_ms"] = round(uniform.p99_ms, 3)
    benchmark.extra_info["skewed_p99_ms"] = round(skewed.p99_ms, 3)

    # Skew drives the *fraction* of lock acquisitions that queue (absolute
    # counts drop because the hot object throttles total completions).
    assert contention_rate(skewed) > contention_rate(uniform)
    assert skewed.p99_ms > uniform.p99_ms
    assert skewed.throughput < uniform.throughput
    # Scheduling = concurrency control: contention queues, never aborts.
    assert uniform.driver.failures == 0
    assert skewed.driver.failures == 0
