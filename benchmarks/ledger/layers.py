"""Per-layer attribution, computed from outside the program.

Three independent sources, one per traced/untraced pass:

- :func:`snapshot` / :func:`counter_metrics` — deltas of the counters
  the platform already exports (untraced pass);
- :func:`rollup_profile` — cProfile self time and call counts rolled up
  to ``repro.<package>.<module>`` (profile pass);
- :func:`span_self_times` — simulated self time per span name (spans
  pass).
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Optional

from benchmarks.ledger.spec import AGGREGATED, PACKAGES

OTHER = "other"

_NET_FIELDS = (
    "messages_sent", "messages_dropped", "frames_sent", "bytes_sent",
)


# -- exact counters ------------------------------------------------------------


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def snapshot(sim: Any, platform: Any, disk_dir: Optional[str] = None) -> dict:
    """Every counter the ledger reads, at one instant.

    Families are summed over their label sets; histograms are skipped
    (their ``value`` is not a running total).
    """
    families: dict[str, float] = {}
    peaks: dict[str, float] = {}
    for name, instruments in platform.metrics.families().items():
        if instruments[0].kind == "histogram":
            continue
        values = [instrument.value for instrument in instruments]
        families[name] = sum(values)
        peaks[name] = max(values)
    stats = platform.net.stats
    return {
        "events": sim.events_scheduled,
        "net": {field: getattr(stats, field) for field in _NET_FIELDS},
        "families": families,
        "peaks": peaks,
        "disk_bytes": _dir_bytes(disk_dir) if disk_dir else 0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(
    before: dict,
    after: dict,
    *,
    jobs: int,
    host_s: float,
    sim_ms: float,
    variant: str,
    cpu_cores: int,
) -> dict[str, float]:
    """The exact-counter per-layer metrics over one measured window.

    ``before``/``after`` are :func:`snapshot` results at end of warm-up
    and end of run.  ``cluster.*`` metrics read 0 on the disaggregated
    platform and ``serverless.*`` read 0 on the aggregated one, whatever
    same-named families the other platform registers.
    """

    def delta(family: str) -> float:
        return after["families"].get(family, 0.0) - before["families"].get(family, 0.0)

    def agg(family: str) -> float:
        return delta(family) if variant == AGGREGATED else 0.0

    def disagg(family: str) -> float:
        return 0.0 if variant == AGGREGATED else delta(family)

    def net(field: str) -> float:
        return after["net"][field] - before["net"][field]

    events = after["events"] - before["events"]
    wire = net("messages_sent")
    calls = delta("rpc_calls")
    hits, misses = delta("runtime_cache_hits"), delta("runtime_cache_misses")
    flushed, compacted = delta("kvstore_bytes_flushed"), delta("kvstore_bytes_compacted")
    rounds, frames = agg("node_replication_rounds"), agg("replication_flush_total")
    rejections = sum(
        agg(family)
        for family in after["families"]
        if family.startswith("node_rejected_")
        or family
        in ("node_lease_rejections", "node_replica_behind_rejections", "node_shed_requests")
    )
    starts = disagg("scheduler_cold_starts") + disagg("scheduler_warm_starts")
    return {
        "sim.events_per_job": _ratio(events, jobs),
        "sim.host_events_per_s": _ratio(events, host_s),
        "sim.network.frames_per_wire_msg": _ratio(net("frames_sent"), wire),
        "sim.network.bytes_per_wire_msg": _ratio(net("bytes_sent"), wire),
        "sim.network.dropped_share": _ratio(net("messages_dropped"), wire),
        "rpc.stub.calls_per_job": _ratio(calls, jobs),
        "rpc.msgs_per_job": _ratio(delta("rpc_messages_out"), jobs),
        "rpc.retries_per_call": _ratio(delta("rpc_retries"), calls),
        "rpc.timeouts_per_call": _ratio(delta("rpc_timeouts"), calls),
        "core.runtime.invocations_per_job": _ratio(delta("runtime_invocations"), jobs),
        "core.runtime.commits_per_job": _ratio(delta("runtime_commits"), jobs),
        "core.runtime.aborts_per_job": _ratio(delta("runtime_aborts"), jobs),
        "wasm.fuel_per_job": _ratio(delta("runtime_fuel_used"), jobs),
        "core.caching.hit_rate": _ratio(hits, hits + misses),
        "core.caching.invalidations_per_job": _ratio(delta("cache_invalidations"), jobs),
        "core.caching.validation_failures": delta("cache_validation_failures"),
        "kvstore.puts_per_job": _ratio(delta("kvstore_puts"), jobs),
        "kvstore.gets_per_job": _ratio(delta("kvstore_gets"), jobs),
        "kvstore.applies_per_job": _ratio(delta("kvstore_applies"), jobs),
        "kvstore.flushes": delta("kvstore_flushes"),
        "kvstore.compactions": delta("kvstore_compactions"),
        "kvstore.bytes_written_per_job": _ratio(flushed + compacted, jobs),
        "kvstore.compacted_over_flushed": _ratio(compacted, flushed),
        "kvstore.disk_bytes_per_job": _ratio(after["disk_bytes"] - before["disk_bytes"], jobs),
        "cluster.scheduler.contention_rate": _ratio(
            agg("scheduler_contentions"), agg("scheduler_acquisitions")
        ),
        "cluster.scheduler.max_queue_length": (
            after["peaks"].get("scheduler_max_queue_length", 0.0)
            if variant == AGGREGATED
            else 0.0
        ),
        "cluster.replication.rounds_per_frame": _ratio(rounds, frames),
        "cluster.replication.frames_per_job": _ratio(frames, jobs),
        "cluster.replication.acks_per_round": _ratio(agg("replication_acked"), rounds),
        "cluster.replication.retransmits_per_round": _ratio(
            agg("replication_retransmitted"), rounds
        ),
        "cluster.replication.out_of_order_per_round": _ratio(
            agg("replication_buffered_out_of_order"), rounds
        ),
        "cluster.store_node.replica_read_share": _ratio(
            agg("node_replica_reads_served"), agg("node_readonly_requests")
        ),
        "cluster.store_node.rejections_per_job": _ratio(rejections, jobs),
        "cluster.store_node.busy_ms_per_job": _ratio(agg("node_busy_ms"), jobs),
        "cluster.store_node.cpu_utilisation": _ratio(agg("node_busy_ms"), sim_ms * cpu_cores),
        "cluster.store_node.lease_grants_per_job": _ratio(agg("node_lease_grants"), jobs),
        "serverless.storage_round_trips_per_job": _ratio(
            disagg("node_storage_round_trips"), jobs
        ),
        "serverless.cold_start_share": _ratio(disagg("scheduler_cold_starts"), starts),
        "serverless.busy_ms_per_job": _ratio(disagg("node_busy_ms"), jobs),
    }


# -- host time: cProfile roll-up -----------------------------------------------


def classify(filename: str) -> Optional[str]:
    """``"<pkg>.<module>"`` for a file of a named package under
    ``src/repro``, ``"other"`` for the rest of ``src/repro`` and the
    ledger's own files, ``None`` for code the repo does not own
    (built-ins, stdlib)."""
    parts = filename.replace("\\", "/").split("/")
    for index in reversed(range(len(parts) - 2)):
        if parts[index : index + 2] == ["src", "repro"]:
            tail = parts[index + 2 :]
            if len(tail) >= 2 and tail[0] in PACKAGES and tail[0] != OTHER:
                return f"{tail[0]}.{tail[-1].removesuffix('.py')}"
            return OTHER
    if parts[-3:-1] == ["benchmarks", "ledger"]:
        return OTHER
    return None


def rollup_profile(stats: dict) -> dict:
    """Roll cProfile's per-function table up to ``<pkg>.<module>`` keys.

    ``stats`` is ``pstats.Stats(...).stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``callers[func] = (nc, cc, tt, ct)``.  A function the
    repo owns keeps its own self time and calls.  A built-in or stdlib
    function has both apportioned to its callers through the caller
    edges — self time by each edge's self time, calls by each edge's call
    count — and, where the caller is itself not owned, onward to *its*
    callers (by cumulative time / call count).  What reaches no owned
    caller lands in ``other``, so the keys' times sum to the profile's
    total.
    """
    owner = {func: classify(func[0]) for func in stats}
    # edge tuple index used for (first hop, deeper hops)
    by_time, by_calls = (2, 3), (0, 0)
    memo: dict[tuple, dict[str, float]] = {}

    def spread(func: tuple, indices: tuple, hop: int, stack: frozenset) -> dict[str, float]:
        index = indices[min(hop, 1)]
        key = (func, index)
        if key in memo:
            return memo[key]
        callers = stats[func][4]
        total = sum(edge[index] for edge in callers.values())
        if total <= 0 or func in stack:
            return {OTHER: 1.0}
        result: dict[str, float] = {}
        for caller, edge in callers.items():
            weight = edge[index] / total
            if weight == 0:
                continue
            owned = owner.get(caller)
            shares = (
                {owned: 1.0}
                if owned is not None
                else spread(caller, indices, hop + 1, stack | {func})
                if caller in stats
                else {OTHER: 1.0}
            )
            for name, share in shares.items():
                result[name] = result.get(name, 0.0) + weight * share
        memo[key] = result
        return result

    time: dict[str, float] = {}
    calls: dict[str, float] = {}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        owned = owner[func]
        if owned is not None:
            time[owned] = time.get(owned, 0.0) + tt
            calls[owned] = calls.get(owned, 0.0) + nc
            continue
        for name, share in spread(func, by_time, 0, frozenset()).items():
            time[name] = time.get(name, 0.0) + tt * share
        for name, share in spread(func, by_calls, 0, frozenset()).items():
            calls[name] = calls.get(name, 0.0) + nc * share
    return {"total_s": sum(time.values()), "time_s": time, "calls": calls}


def by_package(per_module: dict[str, float]) -> dict[str, float]:
    """Sum ``<pkg>.<module>`` keys up to the package list (all present)."""
    totals = {pkg: 0.0 for pkg in PACKAGES}
    for key, value in per_module.items():
        totals[key.split(".")[0]] += value
    return totals


# -- simulated time: span self time --------------------------------------------


def span_self_times(spans: Iterable[Any]) -> dict[str, dict[str, float]]:
    """Per span name: count, total duration and *self* time (duration
    minus the part of the interval that child spans cover), in sim ms.

    Unfinished spans are ignored, as parents and as children.  A trace
    can hold several parentless spans (the client's ``rpc.call`` and the
    serving node's ``request`` share only the trace id); one whose
    interval lies inside another's is counted as its child, so the
    client span's self time is what it spent off the server.
    """
    finished = [span for span in spans if span.end_ms is not None]
    roots: dict[str, list[Any]] = {}
    for span in finished:
        if span.parent_id is None:
            roots.setdefault(span.trace_id, []).append(span)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in finished:
        parent_id = span.parent_id
        if parent_id is None:
            enclosing = [
                other
                for other in roots[span.trace_id]
                if other is not span
                and other.start_ms <= span.start_ms
                and span.end_ms <= other.end_ms
                # equal intervals: the older span is the parent
                and (
                    (other.start_ms, other.end_ms) != (span.start_ms, span.end_ms)
                    or other.span_id < span.span_id
                )
            ]
            if not enclosing:
                continue
            parent_id = min(enclosing, key=lambda other: other.end_ms - other.start_ms).span_id
        children.setdefault(parent_id, []).append((span.start_ms, span.end_ms))
    totals: dict[str, dict[str, float]] = {}
    for span in finished:
        covered = 0.0
        reach = span.start_ms
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, reach), min(end, span.end_ms)
            if end > start:
                covered += end - start
                reach = end
        duration = span.end_ms - span.start_ms
        entry = totals.setdefault(span.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += duration
        entry["self_ms"] += duration - covered
    return totals
