"""The parent side: start passes one after another, assemble metrics.

Two measurements per workload, matching the driver's ``--trace`` flag:

- :func:`measure_end_to_end` (``--trace 0``) — the workload's
  ``untraced_runs`` untraced passes of the same seed over the whole
  measured window, timed slice by slice and combined by
  :func:`undisturbed`; the first also verifies outputs;
- :func:`measure_layers` (``--trace 1``) — an untraced reference pass,
  a cProfile pass and a span-tracing pass, each over the first third of
  the window, plus a memory-backend cross-check on the durable workload.

Each pass is a fresh single-threaded child process; the next starts only
after the previous has exited.
"""

from __future__ import annotations

import json
import operator
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.ledger import layers
from benchmarks.ledger.spec import (
    MIN_SAMPLES,
    MODULES,
    NOMINAL_SECONDS,
    PACKAGES,
    SMOKE_SCALE,
    SPAN_METRICS,
    TRACED_SHARE,
    Workload,
)

ROOT = Path(__file__).resolve().parents[2]
#: durable stores live here while a pass runs; each pass removes its own
TMP_DIR = ROOT / ".ledger_tmp"
#: a pass that takes longer than this is hung (the driver allows 180 s a run)
PASS_TIMEOUT_S = 170

#: simulated-clock and exact fields of a pass record: equal between two
#: passes of the same mix, seed and window, whatever the storage backend
_SIM_FIELDS = ("jobs", "sim_ms", "samples", "latency", "wire_msgs", "wire_bytes")
#: the operators a workload's ``expect`` entries may use
_COMPARISONS = {"==": operator.eq, ">": operator.gt, ">=": operator.ge, "<=": operator.le}


def _disagreements(who: str, first: dict, second: dict) -> list[str]:
    """One line per simulated result two pass records differ on."""
    pairs = [(key, first[key], second[key]) for key in _SIM_FIELDS]
    pairs.append(
        ("sim.events_per_job",)
        + tuple(record["counters"]["sim.events_per_job"] for record in (first, second))
    )
    return [
        f"{who} disagree on simulated {key}: {ours} vs {theirs}"
        for key, ours, theirs in pairs
        if ours != theirs
    ]


@dataclass
class Measurement:
    """What one ``--trace`` mode of one workload produced."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    #: human-readable lines, one per failed verification or consistency check
    failures: list[str] = field(default_factory=list)
    #: printed for context, not metrics: sample counts, verify_s, ...
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures


def run_child(request: dict) -> dict:
    """Run one pass in a fresh interpreter and return its record."""
    TMP_DIR.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    # Fixed string hashing: set iteration order must not differ between
    # the passes whose event counts are compared.
    env["PYTHONHASHSEED"] = "0"
    request = dict(request, tmp=str(TMP_DIR))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger.child", json.dumps(request)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"pass {request['mode']} of {request['workload']} exited with "
            f"{done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def windows(workload: Workload, seconds: float, smoke: bool) -> tuple[float, float, float]:
    """``(warm-up ms, measured ms, scale)`` for a run of ``seconds``:
    one common factor scales every window of every workload."""
    scale = SMOKE_SCALE if smoke else seconds / NOMINAL_SECONDS
    return workload.warmup_ms * scale, workload.measured_ms * scale, scale


def _request(workload: Workload, seed: int, mode: str, warmup_ms: float, measured_ms: float,
             *, verify: bool = False, durable: bool | None = None) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "mode": mode,
        "warmup_ms": warmup_ms,
        "measured_ms": measured_ms,
        "verify": verify,
        "durable": workload.durable if durable is None else durable,
    }


def undisturbed(runs: list[list[float]]) -> float:
    """Host seconds of one window, from runs timed slice by slice.

    The same seed makes every run execute the same events in every
    slice, so the times of a slice differ only by what else the host
    was doing; interference only ever adds time, so the smallest one is
    the best estimate and their sum the window's undisturbed cost.
    (On the reference box a neighbour slows the CPU by 1.4-1.6x for
    0.3-1 s a few times a minute; whole-window wall times of one seed
    spread by 8%, slice-wise minima of two runs by under 2%.)
    """
    if len({len(run) for run in runs}) != 1:
        raise ValueError("runs were sliced differently")
    return sum(min(times) for times in zip(*runs))


def measure_end_to_end(workload: Workload, seed: int, seconds: float, smoke: bool) -> Measurement:
    warmup_ms, measured_ms, scale = windows(workload, seconds, smoke)
    runs = [
        run_child(_request(workload, seed, "untraced", warmup_ms, measured_ms, verify=index == 0))
        for index in range(workload.untraced_runs)
    ]
    run = runs[0]
    host_s = undisturbed([each["host_slices_s"] for each in runs])
    jobs = run["jobs"]
    metrics = {
        "setup_s": undisturbed([each["setup_slices_s"] for each in runs]),
        "host_jobs_per_s": jobs / host_s,
        "host_peak_rss_mb": min(each["peak_rss_mb"] for each in runs),
        "sim_jobs_per_s": jobs / (run["sim_ms"] / 1000.0),
        "wire_msgs_per_job": run["wire_msgs"] / jobs,
        "wire_bytes_per_job": run["wire_bytes"] / jobs,
    }
    for op, stats in run["latency"].items():
        metrics[f"sim_{op}_median_ms"] = stats["median_ms"]
        metrics[f"sim_{op}_p99_ms"] = stats["p99_ms"]

    failed = run["failures"] + run["missing_writes"]
    metrics["failed_share"] = failed / run["attempted"]
    failures = list(run["problems"])
    if run["failures"]:
        failures.append(f"{run['failures']} jobs timed out or failed")
    for again in runs[1:]:
        failures.extend(_disagreements(f"two runs of seed {seed}", run, again))
    needed = 1 if smoke else MIN_SAMPLES
    for op, count in run["samples"].items():
        if count < needed:
            failures.append(f"{op}: {count} measured samples, need {needed}")
    info = {
        "scale": scale,
        "jobs": jobs,
        "samples": run["samples"],
        "min_samples": needed,
        "host_s": host_s,
        "host_s_runs": [each["host_s"] for each in runs],
        "setup_s_runs": [each["setup_s"] for each in runs],
        "sim_ms": run["sim_ms"],
        "verify_s": run["verify_s"],
        "replica_counter_lag_objects": run["counter_lag_objects"],
    }
    return Measurement(metrics, run["attempted"], failed, failures, info)


def measure_layers(workload: Workload, seed: int, seconds: float, smoke: bool) -> Measurement:
    warmup_ms, measured_ms, scale = windows(workload, seconds, smoke)
    third = measured_ms * TRACED_SHARE
    passes = {
        mode: run_child(_request(workload, seed, mode, warmup_ms, third))
        for mode in ("untraced", "profile", "spans")
    }
    plain, profiled, traced = passes["untraced"], passes["profile"], passes["spans"]
    failures: list[str] = []

    metrics = dict(plain["counters"])
    host_us_per_job = 1e6 * plain["host_s"] / plain["jobs"]
    profile = profiled["profile"]
    shares = {key: value / profile["total_s"] for key, value in profile["time_s"].items()}
    package_share = layers.by_package(shares)
    package_calls = layers.by_package(profile["calls"])
    for pkg in PACKAGES:
        metrics[f"{pkg}.host_share"] = package_share[pkg]
        metrics[f"{pkg}.host_us_per_job"] = package_share[pkg] * host_us_per_job
        metrics[f"{pkg}.calls_per_job"] = package_calls[pkg] / profiled["jobs"]
    for module in MODULES:
        metrics[f"{module}.host_share"] = shares.get(module, 0.0)
    for mode, run in (("profile", profiled), ("spans", traced)):
        metrics[f"trace.{mode}_slowdown"] = (run["host_s"] / run["jobs"]) / (
            plain["host_s"] / plain["jobs"]
        )
    metrics["obs.spans_per_job"] = traced["span_count"] / traced["jobs"]
    for name, span_name, span_field in SPAN_METRICS:
        total = traced["spans"].get(span_name, {}).get(span_field, 0.0)
        metrics[name] = total / traced["jobs"]

    share_sum = sum(package_share.values())
    if abs(share_sum - 1.0) > 1e-3:
        failures.append(f"package host shares sum to {share_sum:.6f}, not 1")
    events = {mode: run["counters"]["sim.events_per_job"] for mode, run in passes.items()}
    if len(set(events.values())) != 1:
        failures.append(f"sim.events_per_job differs between passes: {events}")
    expected = workload.expect + (() if smoke else workload.expect_at_scale)
    for name, op, value in expected:
        if not _COMPARISONS[op](metrics[name], value):
            failures.append(f"expected {name} {op} {value}, measured {metrics[name]:.6g}")
    if workload.durable:
        memory = run_child(_request(workload, seed, "untraced", warmup_ms, third, durable=False))
        failures.extend(_disagreements("durable and memory backends", plain, memory))
    failed = plain["failures"]
    if failed:
        failures.append(f"{failed} jobs timed out or failed")
    info = {
        "scale": scale,
        "jobs": {mode: run["jobs"] for mode, run in passes.items()},
        "host_s": {mode: run["host_s"] for mode, run in passes.items()},
        "setup_s": {mode: run["setup_s"] for mode, run in passes.items()},
    }
    return Measurement(metrics, plain["attempted"], failed, failures, info)
