"""Ablation: lease-based replica reads.

With leases on, backups holding a fresh grant from their shard's primary
serve read-only invocations locally — no primary round trip, no
settlement barrier — and release each reply only once the settlement
watermark covers the read state.  On a read-heavy mix that spreads the
read load across the replica set and cuts both read latency and the
per-invocation message bill; off, every read is a primary round trip
parked behind the per-object barrier.
"""

from dataclasses import replace

from repro.bench.harness import (
    AGGREGATED,
    READ_HEAVY_MIX,
    REPLICATION_MIX_NODES,
    run_retwis,
)

from benchmarks.conftest import run_once


def test_replica_reads_cut_read_latency_and_messages(benchmark, cal):
    def regenerate():
        results = {}
        for enabled in (False, True):
            run = run_retwis(
                AGGREGATED,
                READ_HEAVY_MIX,
                replace(cal, num_storage_nodes=REPLICATION_MIX_NODES),
                replica_reads=enabled,
            )
            platform = run.platform
            completed = sum(r.completed for r in run.driver.reports.values())
            reads = run.driver.reports["get_timeline"]
            served = sum(
                node.stats.replica_reads_served
                for node in platform.nodes.values()
            )
            results[enabled] = {
                "messages_per_invocation": platform.net.stats.messages_sent / completed,
                "completed": completed,
                "read_p99_ms": reads.p99_ms,
                "replica_reads_served": served,
            }
        return results

    results = run_once(benchmark, regenerate)
    off, on = results[False], results[True]
    benchmark.extra_info["messages_per_invocation_off"] = round(
        off["messages_per_invocation"], 2
    )
    benchmark.extra_info["messages_per_invocation_on"] = round(
        on["messages_per_invocation"], 2
    )
    benchmark.extra_info["read_p99_off_ms"] = round(off["read_p99_ms"], 3)
    benchmark.extra_info["read_p99_on_ms"] = round(on["read_p99_ms"], 3)

    # Both arms complete real work and the lease path actually served.
    assert off["completed"] > 100 and on["completed"] > 100
    assert off["replica_reads_served"] == 0
    assert on["replica_reads_served"] > 100
    # The acceptance gates: well under 6 messages/invocation with leases
    # on, and the read tail must not regress.
    assert on["messages_per_invocation"] < 6.0
    assert on["messages_per_invocation"] <= off["messages_per_invocation"]
    assert on["read_p99_ms"] <= off["read_p99_ms"]
