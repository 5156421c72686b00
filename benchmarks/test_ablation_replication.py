"""Ablation: primary-backup replication cost (§4.2.1).

Each added backup costs one more parallel ack round trip on the write
path: latency grows modestly with replica count, and an unreplicated
deployment is the latency floor.
"""

from dataclasses import replace

from repro.bench.harness import AGGREGATED, run_retwis
from repro.workload.retwis_load import RetwisWorkload

from benchmarks.conftest import run_once


def test_replication_latency_cost(benchmark, cal):
    def regenerate():
        results = {}
        for replicas in (1, 3, 5):
            # Below saturation: queueing would otherwise hide the ack RTT.
            results[replicas] = run_retwis(
                AGGREGATED,
                RetwisWorkload.FOLLOW,
                replace(cal, num_storage_nodes=replicas, num_clients=6),
            )
        return results

    results = run_once(benchmark, regenerate)
    for replicas, result in results.items():
        benchmark.extra_info[f"median_ms_r{replicas}"] = round(result.median_ms, 3)

    # No replication is the floor; acks are parallel, so 5 replicas cost
    # at most ~3x the single-node write path at this scale.
    assert results[1].median_ms < results[3].median_ms
    assert results[3].median_ms <= results[5].median_ms * 1.05  # ~flat: parallel acks
    assert results[5].median_ms < 3 * results[1].median_ms
