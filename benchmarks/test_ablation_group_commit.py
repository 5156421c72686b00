"""Ablation: pipelined group-commit replication (§4.2.1 + group commit).

With the pipeline on, committed rounds from concurrent invocations on a
shard coalesce into range frames settled by cumulative acks, so the
replication message bill per invocation drops well below the
one-frame-and-one-ack-per-backup-per-commit baseline, without giving up
the all-live-backups-acked reply condition.  Off is the same pipeline at
one round per frame (``group_commit_max_rounds=1``).
"""

from dataclasses import replace

from repro.bench.harness import (
    AGGREGATED,
    REPLICATION_MIX,
    REPLICATION_MIX_NODES,
    run_retwis,
)

from benchmarks.conftest import run_once


def test_group_commit_cuts_messages_per_invocation(benchmark, cal):
    def regenerate():
        results = {}
        for enabled in (False, True):
            overrides = {} if enabled else {"group_commit_max_rounds": 1}
            run = run_retwis(
                AGGREGATED,
                REPLICATION_MIX,
                replace(cal, num_storage_nodes=REPLICATION_MIX_NODES),
                **overrides,
            )
            completed = sum(r.completed for r in run.driver.reports.values())
            results[enabled] = (
                run.platform.net.stats.messages_sent / completed,
                completed,
            )
        return results

    results = run_once(benchmark, regenerate)
    per_invocation_off, completed_off = results[False]
    per_invocation_on, completed_on = results[True]
    benchmark.extra_info["messages_per_invocation_off"] = round(per_invocation_off, 2)
    benchmark.extra_info["messages_per_invocation_on"] = round(per_invocation_on, 2)

    # Both modes complete real work; pipelining must save >=25% of the
    # per-invocation message bill (the headline claim).
    assert completed_off > 100 and completed_on > 100
    assert per_invocation_on <= 0.75 * per_invocation_off
