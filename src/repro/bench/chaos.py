"""Chaos soak: a long randomized fault schedule with full consistency
checking afterwards.

Not a paper artifact — a confidence artifact.  The soak runs the shared
register workload under every nemesis event kind at once (drop storms,
partitions, crash/recover, a permanent failover, migrations when
sharded), then quiesces and runs the :class:`ConsistencyChecker`.  The
row it returns summarises how much adversity the run absorbed and that
every consistency property still held.
"""

from __future__ import annotations

from repro.bench.calibration import CalibrationLike, resolve
from repro.bench.report import format_table
from repro.chaos import NemesisConfig, run_scenario


def chaos_soak(
    cal: CalibrationLike = None,
    seeds: tuple[int, ...] = (3, 5, 11),
    num_shards: int = 2,
) -> dict:
    """Run one soak per seed; returns ``{"rows": [...]}`` like the other
    experiments, one row per seed plus a ``summary`` entry."""
    cal = resolve(cal)
    rows = []
    for seed in seeds:
        result = run_scenario(
            seed=seed,
            nemesis_config=NemesisConfig(
                events=(
                    "drop_storm",
                    "partition",
                    "crash_recover",
                    "failover",
                    "migrate",
                ),
                max_failovers=1,
                mean_interval_ms=25.0,
            ),
            num_storage_nodes=max(cal.num_storage_nodes, 4),
            num_shards=num_shards,
            num_clients=4,
            num_objects=3,
            ops_per_client=200,
            duration_ms=cal.duration_ms,
        )
        report = result.check()
        node_stats = result.cluster.total_node_stats()
        rows.append(
            {
                "seed": seed,
                "quiesced": result.quiesced,
                "consistent": report.ok,
                "violations": [str(v) for v in report.violations],
                "operations": report.checked_operations,
                "incomplete_operations": len(result.recorder.incomplete()),
                "gave_up": sum(result.gave_up.values()),
                "nemesis_events": len(result.nemesis.events_log),
                "messages_dropped": result.cluster.net.stats.messages_dropped,
                "replica_reads_served": int(
                    node_stats.get("replica_reads_served", 0)
                ),
                "lease_rejections": int(node_stats.get("lease_rejections", 0)),
                "node_stats": node_stats,
            }
        )
    summary = {
        "seeds": len(rows),
        "all_consistent": all(row["consistent"] for row in rows),
        "total_operations": sum(row["operations"] for row in rows),
        "total_nemesis_events": sum(row["nemesis_events"] for row in rows),
        "total_replica_reads_served": sum(
            row["replica_reads_served"] for row in rows
        ),
    }
    text = "Chaos soak: randomized faults + consistency checking\n\n"
    text += format_table(
        [
            "seed", "consistent", "ops", "incomplete", "nemesis events",
            "msgs dropped", "replica reads",
        ],
        [
            [
                row["seed"],
                "yes" if row["consistent"] else "NO",
                row["operations"],
                row["incomplete_operations"],
                row["nemesis_events"],
                row["messages_dropped"],
                row["replica_reads_served"],
            ]
            for row in rows
        ],
    )
    if summary["all_consistent"]:
        text += "\n\nAll seeds linearizable, converged, and fully quiesced."
    else:
        text += "\n\nCONSISTENCY VIOLATIONS:\n"
        for row in rows:
            for violation in row["violations"]:
                text += f"  seed {row['seed']}: {violation}\n"
    return {
        "experiment": "chaos_soak",
        "name": "chaos_soak",
        "rows": rows,
        "summary": summary,
        "text": text,
    }
