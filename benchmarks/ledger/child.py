"""One pass of one workload, in a process of its own.

``python -m benchmarks.ledger.child '<json request>'`` builds a fresh
platform, loads the dataset, runs the warm-up window (all of that is
set-up), then measures from the end of warm-up to the last in-flight
reply and prints one JSON record.  The parent
(:mod:`benchmarks.ledger.runner`) starts passes strictly one after
another, so nothing here shares the host with another pass.

Modes: ``untraced`` measures with no instrumentation beyond the counters
the platform always keeps; ``profile`` measures under cProfile;
``spans`` measures with the span tracer at sample rate 1.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import shutil
import sys
import tempfile
import time
from statistics import median
from typing import Any, Optional

from repro.bench.calibration import Calibration
from repro.bench.harness import build_platform
from repro.chaos import ConsistencyChecker
from repro.core.ids import ObjectId
from repro.core.keyspace import object_prefix
from repro.errors import SimulationError
from repro.sim import Simulation
from repro.workload.metrics import percentile

from benchmarks.ledger import audit, layers
from benchmarks.ledger.loadgen import ClosedLoop, Dataset
from benchmarks.ledger.spec import (
    AGGREGATED,
    COUNTER_LAG_CEILING,
    NUM_CLIENTS,
    WORKLOADS_BY_NAME,
)

#: both windows are run in this many equal simulated-time slices, each
#: timed on the host clock.  A run's events are the same for the same
#: seed, so the parent can compare two runs slice by slice and keep the
#: undisturbed time of each (see ``runner.undisturbed``); short slices
#: also keep the span tracer (at most 4,096 finished traces) from
#: evicting spans before the spans pass has copied them out.
WARMUP_SLICES = 16
MEASURED_SLICES = 64
#: high enough that the tracer's own span cap never triggers
MAX_SPANS = 50_000_000
#: livelock guard on simulated time after the issue window closes
DRAIN_LIMIT_MS = 600_000.0


class SpanHarvest:
    """Copies spans out of a live tracer before it evicts them.

    Span ids grow by one per span, so a high-water mark takes each span
    once and a gap means the tracer evicted spans between two calls,
    which fails the pass.  Objects stay shared: a span still open when
    copied is seen finished later.
    """

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self.spans: list = []
        self._seen = 0

    def skip_past(self) -> None:
        """Forget everything recorded so far (the warm-up's spans)."""
        if self.tracer.spans:
            self._seen = max(span.span_id for span in self.tracer.spans)

    def collect(self) -> None:
        fresh = [span for span in self.tracer.spans if span.span_id > self._seen]
        if fresh:
            if len(fresh) != fresh[-1].span_id - self._seen:
                raise RuntimeError("the tracer evicted spans before they were copied out")
            self._seen = fresh[-1].span_id
            self.spans.extend(fresh)


def _run_slices(
    sim: Any,
    start_ms: float,
    end_ms: float,
    slices: int,
    gate: Any = None,
    harvest: Optional[SpanHarvest] = None,
) -> list[float]:
    """Advance from ``start_ms`` to ``end_ms`` slice by slice; host
    seconds per slice.  With a ``gate``, one more slice runs until it
    triggers, exactly (no event past it executes).

    Stopping schedules nothing: ``run(until=...)`` returns, and an
    over-limit ``run_until_triggered`` raises, with the clock and queue
    untouched, so the event count is that of an uninterrupted run.
    """
    times = []
    mark = time.perf_counter()

    def lap() -> None:
        nonlocal mark
        times.append(time.perf_counter() - mark)
        if harvest is not None:
            harvest.collect()  # not on the clock
        mark = time.perf_counter()

    for index in range(1, slices + 1):
        boundary = start_ms + (end_ms - start_ms) * index / slices
        if gate is None:
            sim.run(until=boundary)
        else:
            try:
                sim.run_until_triggered(gate, limit=boundary)
            except SimulationError:
                pass  # reached the boundary first; a drained queue re-raises below
        lap()
    if gate is not None:
        sim.run_until_triggered(gate, limit=end_ms + DRAIN_LIMIT_MS)
        lap()
    return times


def run_pass(request: dict) -> dict:
    workload = WORKLOADS_BY_NAME[request["workload"]]
    mode = request["mode"]
    seed = request["seed"]
    warmup_ms, measured_ms = request["warmup_ms"], request["measured_ms"]
    durable_dir = (
        tempfile.mkdtemp(prefix=f"{workload.name}-", dir=request["tmp"])
        if request["durable"]
        else None
    )
    platform = None
    try:
        load_started = time.perf_counter()
        sim = Simulation(seed=seed)
        cal = Calibration(seed=seed, num_storage_nodes=workload.replicas)
        overrides = dict(workload.overrides)
        if durable_dir is not None:
            overrides["durable_dir"] = durable_dir
        platform = build_platform(workload.variant, sim, cal, **overrides)
        harvest = None
        if mode == "spans":
            harvest = SpanHarvest(platform.enable_tracing(max_spans=MAX_SPANS, sample_rate=1.0))
        dataset = Dataset(seed)
        dataset.load(platform)
        platform.start()
        loop = ClosedLoop(
            sim, platform, dataset, workload.mix, seed, NUM_CLIENTS, workload.post_chars
        )
        end_ms = warmup_ms + measured_ms
        gate = loop.start(end_ms)
        setup_slices = [time.perf_counter() - load_started]
        setup_slices += _run_slices(sim, 0.0, warmup_ms, WARMUP_SLICES)
        record: dict = {
            "mode": mode,
            "setup_slices_s": setup_slices,
            "setup_s": sum(setup_slices),
        }

        if harvest is not None:
            harvest.skip_past()
        before = layers.snapshot(sim, platform, durable_dir)
        profiler = cProfile.Profile() if mode == "profile" else None
        if profiler is not None:
            profiler.enable()
        host_slices = _run_slices(sim, warmup_ms, end_ms, MEASURED_SLICES, gate, harvest)
        if profiler is not None:
            profiler.disable()
        host_s = sum(host_slices)
        after = layers.snapshot(sim, platform, durable_dir)

        latencies = loop.measured(warmup_ms)
        if not all(latencies.values()):
            raise RuntimeError(f"an op completed no job in the measured window: {latencies}")
        jobs = sum(len(series) for series in latencies.values())
        sim_ms = sim.now - warmup_ms
        record.update(
            host_slices_s=host_slices,
            host_s=host_s,
            jobs=jobs,
            sim_ms=sim_ms,
            samples={label: len(series) for label, series in latencies.items()},
            latency={
                label: {
                    "median_ms": median(series),
                    "p99_ms": percentile(sorted(series), 0.99),
                }
                for label, series in latencies.items()
            },
            wire_msgs=after["net"]["messages_sent"] - before["net"]["messages_sent"],
            wire_bytes=after["net"]["bytes_sent"] - before["net"]["bytes_sent"],
            counters=layers.counter_metrics(
                before,
                after,
                jobs=jobs,
                host_s=host_s,
                sim_ms=sim_ms,
                variant=workload.variant,
                cpu_cores=cal.num_storage_nodes * cal.cores_per_node,
            ),
        )
        if profiler is not None:
            record["profile"] = layers.rollup_profile(pstats.Stats(profiler).stats)
        if harvest is not None:
            in_window = [span for span in harvest.spans if span.start_ms >= warmup_ms]
            record["spans"] = layers.span_self_times(in_window)
            record["span_count"] = len(in_window)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if request["verify"]:
            record.update(_verify(sim, platform, workload, dataset, loop))
        record.update(attempted=loop.attempted, failures=loop.failures)
        return record
    finally:
        if platform is not None and hasattr(platform, "close"):
            platform.close()
        if durable_dir is not None:
            shutil.rmtree(durable_dir, ignore_errors=True)


def _verify(sim: Any, platform: Any, workload: Any, dataset: Dataset, loop: ClosedLoop) -> dict:
    """Quiesce, read every acknowledged write back, compare replicas."""
    started = time.perf_counter()
    problems: list[str] = []
    lagging: set[str] = set()
    if workload.variant == AGGREGATED:
        if not platform.quiesce():
            problems.append("cluster did not quiesce")
    else:
        # The baseline has no background work: once the last reply is in,
        # nothing is in flight.
        sim.run(until=sim.now + 50.0)
    followees = sorted({followee for _follower, followee in loop.acked_follows})
    posts, timelines, followers = audit.read_back(
        sim, platform.client("ledger-audit"), dataset.accounts, sorted(loop.acked_posts), followees
    )
    misses = audit.missing_writes(
        dataset.accounts, loop.acked_posts, loop.acked_follows, posts, timelines, followers
    )
    if workload.variant == AGGREGATED:
        report = ConsistencyChecker(platform).check_convergence(dataset.accounts)
        for violation in report.violations:
            if _only_append_counters_differ(platform, violation.target):
                lagging.add(violation.target)
            else:
                problems.append(str(violation))
        if len(lagging) > COUNTER_LAG_CEILING:
            problems.append(
                f"{len(lagging)} objects with a lagging append counter, "
                f"ceiling {COUNTER_LAG_CEILING}"
            )
    return {
        "verify_s": time.perf_counter() - started,
        "missing_writes": len(misses),
        "counter_lag_objects": len(lagging),
        "problems": (misses + problems)[:20],
    }


def _only_append_counters_differ(platform: Any, object_id: str) -> bool:
    """Whether an object's replicas hold the same keys and differ only in
    ``o/<oid>/n/<field>`` append counters.

    That divergence exists at the commit this benchmark was defined on
    (a backup's counter can lag the primary's by one after two
    near-simultaneous appends, with every entry present); no read
    returns it, so it is counted, reported and held under
    ``COUNTER_LAG_CEILING``, not failed.  Any other difference between
    replicas fails the run.
    """
    oid = ObjectId(object_id)
    counters = object_prefix(oid) + b"n/"
    dumps = [dict(node.dump_object_state(oid)) for node in platform.live_nodes()]
    reference = dumps[0]
    for other in dumps[1:]:
        if other.keys() != reference.keys():
            return False
        differing = (key for key in reference if reference[key] != other[key])
        if not all(key.startswith(counters) for key in differing):
            return False
    return True


def pin_to_quiet_cpu() -> None:
    """Pin this process to the highest-numbered CPU it may run on.

    Unpinned work lands on the low-numbered CPUs first: on the reference
    box CPU 0 runs everything else and slows a pass by 1.4-1.6x for
    0.3-1 s at a time, while CPU 1 idles.  A pass is one thread, so one
    CPU is all it can use.
    """
    if hasattr(os, "sched_setaffinity"):
        allowed = os.sched_getaffinity(0)
        if len(allowed) > 1:
            os.sched_setaffinity(0, {max(allowed)})


def main(argv: list[str]) -> int:
    pin_to_quiet_cpu()
    record = run_pass(json.loads(argv[0]))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
