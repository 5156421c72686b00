"""Replication family: what primary-backup replication costs and the
mechanisms that cut that bill (group commit, lease-based replica reads,
transport coalescing), plus the Post fan-out sweep.

The three on/off ablations share one shape (:func:`_mix_ablation`): the
same Retwis mix at :data:`REPLICATION_MIX_NODES` replicas, once per arm
of ``build_platform`` overrides, billed in wire messages per invocation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

from repro.bench.calibration import CalibrationLike, resolve
from repro.bench.harness import (
    AGGREGATED,
    DISAGGREGATED,
    READ_HEAVY_MIX,
    REPLICATION_MIX,
    REPLICATION_MIX_NODES,
    RunResult,
    post_replication_bytes,
    run_retwis,
)
from repro.bench.report import format_comparison
from repro.workload.retwis_load import RetwisWorkload


def abl_replication(cal: CalibrationLike = None) -> dict:
    """§4.2.1 — latency cost of primary-backup replication per replica.

    Measured below CPU saturation (a handful of clients): under a
    saturating load, queueing hides the replication round trip entirely.
    """
    cal = resolve(cal)
    rows = []
    for replicas in (1, 2, 3, 5):
        result = run_retwis(
            AGGREGATED,
            RetwisWorkload.FOLLOW,
            replace(cal, num_storage_nodes=replicas, num_clients=min(cal.num_clients, 8)),
        )
        rows.append(
            {
                "replicas": replicas,
                "throughput_per_sec": round(result.throughput, 1),
                "median_ms": round(result.median_ms, 3),
                "p99_ms": round(result.p99_ms, 3),
            }
        )
    text = format_comparison("Ablation: replication factor (Follow, aggregated)", rows)
    return {"name": "abl_replication", "rows": rows, "text": text}


def _mix_ablation(
    name: str,
    cal: CalibrationLike,
    column: str,
    arms: tuple[tuple[str, dict], ...],
    columns: Callable[[RunResult], dict[str, Any]],
    title: str,
    mechanism: str,
    mix: dict = REPLICATION_MIX,
) -> dict:
    """Run ``mix`` on the aggregated cluster once per ``(label, overrides)``
    arm — the first is the baseline, the second the mechanism on — and
    report each arm's throughput, ``columns(run)``, wire messages, and
    the per-invocation message reduction from the first arm to the
    second."""
    cal = replace(resolve(cal), num_storage_nodes=REPLICATION_MIX_NODES)
    rows = []
    for label, overrides in arms:
        run = run_retwis(AGGREGATED, mix, cal, **overrides)
        messages = run.platform.net.stats.messages_sent
        rows.append(
            {
                column: label,
                "throughput_per_sec": round(run.total_throughput, 1),
                **columns(run),
                "messages": messages,
                "messages_per_invocation": round(messages / run.driver.total_completed, 2),
            }
        )
    off_row, on_row = rows[0], rows[1]
    reduction = 100.0 * (
        1.0 - on_row["messages_per_invocation"] / off_row["messages_per_invocation"]
    )
    text = format_comparison(title, rows)
    text += f"\n  messages/invocation reduction with {mechanism}: {reduction:.1f}%"
    return {"name": name, "rows": rows, "text": text}


def _node_total(run: RunResult, stat: str) -> int:
    return sum(getattr(node.stats, stat) for node in run.platform.nodes.values())


def abl_group_commit(cal: CalibrationLike = None) -> dict:
    """§4.2.1 + group commit — pipelined replication on vs off.

    The mutation-heavy mix (REPLICATION_MIX) on the aggregated cluster:
    with the pipeline on, committed rounds from concurrent invocations
    coalesce into range frames settled by cumulative acks, so the
    messages-per-invocation bill drops; off is the same pipeline at one
    round per frame, so every mutating invocation costs one frame and
    one ack per backup.
    """

    def columns(run: RunResult) -> dict:
        post = run.driver.reports["create_post"]
        return {"post_median_ms": round(post.median_ms, 3), "post_p99_ms": round(post.p99_ms, 3)}

    return _mix_ablation(
        "abl_group_commit",
        cal,
        "group_commit",
        (
            ("off (round per frame)", dict(group_commit_max_rounds=1)),
            ("on (pipelined group commit)", dict()),
        ),
        columns,
        "Ablation: pipelined group-commit replication (mixed workload, aggregated)",
        "pipelining",
    )


def abl_replica_reads(cal: CalibrationLike = None) -> dict:
    """Lease-based replica reads on vs off (read-heavy mix, aggregated).

    READ_HEAVY_MIX at the replication-mix node count: with replica reads
    off, every timeline read is a primary round trip parked behind the
    settlement barrier; on, lease-holding backups answer locally, so the
    read path costs two messages and the primary's read load fans out
    across the replica set.  The bill is messages per invocation plus the
    read latency distribution (which must not regress).
    """

    def columns(run: RunResult) -> dict:
        reads = run.driver.reports["get_timeline"]
        return {
            "read_median_ms": round(reads.median_ms, 3),
            "read_p99_ms": round(reads.p99_ms, 3),
            "replica_reads_served": _node_total(run, "replica_reads_served"),
        }

    return _mix_ablation(
        "abl_replica_reads",
        cal,
        "replica_reads",
        (
            ("off (primary reads + barrier)", dict(replica_reads=False)),
            ("on (lease-holding backups)", dict(replica_reads=True)),
        ),
        columns,
        "Ablation: lease-based replica reads (read-heavy mix, aggregated)",
        "replica reads",
        mix=READ_HEAVY_MIX,
    )


def abl_coalescing(cal: CalibrationLike = None) -> dict:
    """Transport egress coalescing + ack piggybacking on vs off (§5j).

    The mutation-heavy mix (REPLICATION_MIX) on the aggregated cluster:
    with coalescing on, same-window frames to one destination share a
    wire message (one latency draw, one delivery event) and backups
    defer their cumulative acks so several per-frame acks merge into
    one watermark send.  The bill is wire messages per invocation plus
    the mutation latency distribution (which must not regress — the
    deferral window is bounded by ``ack_flush_ms``) and the GetTimeline
    tail: deferred acks delay settlement, so reads of dirty objects park
    longer behind the read barrier.  That tail is why coalescing stays a
    default-off ablation (DESIGN.md §5j).

    Besides on/off, the experiment sweeps ``coalesce_window_ms`` > 0:
    a positive window holds an egress frame back to pack more
    companions into one wire message, trading added mutation latency
    for fewer messages.  The sweep shows where that trade stops paying.
    """

    def columns(run: RunResult) -> dict:
        post = run.driver.reports["create_post"]
        return {
            "post_median_ms": round(post.median_ms, 3),
            "post_p99_ms": round(post.p99_ms, 3),
            "timeline_p99_ms": round(run.driver.reports["get_timeline"].p99_ms, 3),
            "acks_deferred": _node_total(run, "acks_deferred"),
            "frames": run.platform.net.stats.frames_sent,
        }

    return _mix_ablation(
        "abl_coalescing",
        cal,
        "coalescing",
        tuple(
            (label, dict(transport_coalescing=enabled, coalesce_window_ms=window))
            for label, enabled, window in (
                ("off (message per send)", False, 0.0),
                ("on (coalesced + deferred acks)", True, 0.0),
                ("on, window 0.05 ms", True, 0.05),
                ("on, window 0.2 ms", True, 0.2),
            )
        ),
        columns,
        "Ablation: transport egress coalescing (mixed workload, aggregated)",
        "coalescing",
    )


def abl_fanout(cal: CalibrationLike = None) -> dict:
    """§5 — Post cost vs follower count (nested-call fan-out).

    ``aggregated_replication_bytes_per_post`` is what one backup receives
    per Post of a 1 KiB text from an author with exactly that many
    followers (:func:`~repro.bench.harness.post_replication_bytes`): the
    round ships the post once, so it grows by follower keys, not copies.
    """
    cal = resolve(cal)
    rows = []
    for follows in (5, 10, 20, 40):
        swept = replace(cal, avg_follows=follows)
        agg = run_retwis(AGGREGATED, RetwisWorkload.POST, swept)
        dis = run_retwis(DISAGGREGATED, RetwisWorkload.POST, swept)
        rows.append(
            {
                "avg_followers": follows,
                "aggregated_jobs_per_sec": round(agg.throughput, 1),
                "disaggregated_jobs_per_sec": round(dis.throughput, 1),
                "aggregated_median_ms": round(agg.median_ms, 3),
                "disaggregated_median_ms": round(dis.median_ms, 3),
                "aggregated_replication_bytes_per_post": round(
                    post_replication_bytes(swept, follows), 1
                ),
            }
        )
    text = format_comparison("Ablation: Post vs fan-out degree", rows)
    return {"name": "abl_fanout", "rows": rows, "text": text}
