"""Instrumented paired runs behind the bench CLI's ``--metrics-out``.

Every experiment answers "how fast"; this module answers "what happened
inside".  It reruns one workload on **both** architectures with the span
tracer switched on, then bundles each platform's registry totals
(per-node, scheduler, cache, kvstore, replication), its network
counters, a span-count summary, and the rendered tree of the slowest
trace per variant into one JSON-able payload.  Because both platforms
publish the same metric families (``node_*``, ``scheduler_*``,
``kvstore_*``...), the two halves of the payload are directly
comparable.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.bench.calibration import Calibration, CalibrationLike, resolve
from repro.bench.harness import AGGREGATED, VARIANTS, run_retwis
from repro.workload.retwis_load import RetwisWorkload


def instrumented_run(variant: str, workload_name: str, cal: Calibration) -> dict[str, Any]:
    """One fully-instrumented measurement on one architecture.

    A :func:`~repro.bench.harness.run_retwis` run with every request
    traced from before the load starts.
    """
    # Surface the cache_* family too; the baseline has no consistent
    # cache (by design), so only the LambdaStore half reports it.
    overrides = dict(enable_cache=True) if variant == AGGREGATED else {}
    run = run_retwis(variant, workload_name, cal, trace_sample_rate=1.0, **overrides)
    platform = run.platform
    tracer = platform.tracer
    slowest = tracer.slowest_trace()
    net_stats = platform.net.stats
    return {
        "variant": variant,
        "workload": workload_name,
        "report": run.report.to_row(),
        "network": {
            "messages_sent": net_stats.messages_sent,
            "messages_delivered": net_stats.messages_delivered,
            "messages_dropped": net_stats.messages_dropped,
            "frames_sent": net_stats.frames_sent,
            "bytes_sent": net_stats.bytes_sent,
            "bytes_delivered": net_stats.bytes_delivered,
        },
        "metrics": platform.metrics.snapshot()["metrics"],
        "spans": {
            "recorded": len(tracer),
            "dropped_oldest": tracer.dropped_oldest,
            "traces": len(tracer.trace_ids()),
            "slowest_trace_id": slowest,
            "slowest_trace_tree": tracer.render(slowest) if slowest else "",
        },
    }


def collect_observability(
    cal: CalibrationLike = None, workload_name: str = RetwisWorkload.POST
) -> dict[str, Any]:
    """The ``--metrics-out`` payload: one instrumented run per variant."""
    cal = resolve(cal)
    return {
        "kind": "observability",
        "workload": workload_name,
        "seed": cal.seed,
        "variants": {
            variant: instrumented_run(variant, workload_name, cal) for variant in VARIANTS
        },
    }


def metrics_out_payload(
    cal: CalibrationLike,
    experiment_results: Optional[list[dict[str, Any]]] = None,
    workload_name: str = RetwisWorkload.POST,
) -> dict[str, Any]:
    """What the bench CLI writes to ``--metrics-out``.

    The observability bundle, plus the rows of any experiments that ran
    in the same invocation (chaos-soak rows already carry per-node
    stats, so CI gets its fault-injection snapshot from the same file).
    """
    payload = collect_observability(cal, workload_name=workload_name)
    if experiment_results:
        payload["experiments"] = {
            result.get("name", result.get("experiment", f"exp{i}")): result.get(
                "rows", []
            )
            for i, result in enumerate(experiment_results)
        }
    return payload
