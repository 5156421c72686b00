"""Command line of the ledger.

Three uses of one parser:

- ``python -m benchmarks.ledger [--seed N] [--workload NAME] [--out PATH]``
  — the full ledger: every workload, both measurements, one JSON file;
- ``python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` — the driver's contract: one workload, one measurement,
  the result object as the last line of standard output;
- ``python -m benchmarks.ledger --compare A.json B.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from statistics import median
from typing import Optional

from benchmarks.ledger.compare import compare
from benchmarks.ledger.runner import ROOT, Measurement, measure_end_to_end, measure_layers
from benchmarks.ledger.spec import (
    E2E_RUNS,
    END_TO_END,
    LEDGER_END_TO_END,
    NOMINAL_SECONDS,
    PER_LAYER,
    RUN_SECONDS,
    SMOKE_SCALE,
    WORKLOADS,
    WORKLOADS_BY_NAME,
)


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int, seconds: float, smoke: bool) -> dict:
    """Written into every output, so two files can be told apart."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "seed": seed,
        "seconds": seconds,
        "window_scale": SMOKE_SCALE if smoke else seconds / NOMINAL_SECONDS,
        "comparable": not smoke,
    }


def print_measurement(name: str, measurement: Measurement, specs: tuple) -> None:
    """Every metric by name, with its unit, then the context lines."""
    for metric, unit, *_rest in specs:
        print(f"{name} {metric} {measurement.metrics[metric]!r} {unit}")
    for key, value in measurement.info.items():
        print(f"{name} # {key} = {value}")
    for line in measurement.failures:
        print(f"{name} FAILED {line}")


def contract_run(workload_name: str, seed: int, seconds: float, trace: int, smoke: bool) -> int:
    """One workload, one ``--trace`` mode; last line is the result object."""
    workload = WORKLOADS_BY_NAME[workload_name]
    if trace:
        measure, specs, printed = measure_layers, PER_LAYER, PER_LAYER
    else:
        # failed_share is printed, and travels as ``failed`` / ``attempted``
        measure, specs, printed = measure_end_to_end, END_TO_END, LEDGER_END_TO_END
    measurement = measure(workload, seed, seconds, smoke)
    print_measurement(workload.name, measurement, printed)
    print(
        json.dumps(
            {
                "correct": measurement.correct,
                "attempted": measurement.attempted,
                "failed": measurement.failed,
                "metrics": {
                    metric: {"value": measurement.metrics[metric], "unit": unit}
                    for metric, unit, *_rest in specs
                },
            }
        )
    )
    return 0 if measurement.correct else 1


def ledger_run(names: list[str], seed: int, seconds: float, smoke: bool, out: Optional[str]) -> int:
    """Every named workload, strictly one after another; one JSON file.

    Each end-to-end number is the median of ``E2E_RUNS`` runs (two under
    ``--smoke``), all of which the file keeps.
    """
    ledger = {"environment": environment(seed, seconds, smoke), "workloads": {}}
    print(f"# environment {json.dumps(ledger['environment'])}")
    if smoke:
        print("# --smoke: windows cut to 1/20, sample rule waived, output NOT comparable")
    correct = True
    for name in names:
        workload = WORKLOADS_BY_NAME[name]
        runs = [
            measure_end_to_end(workload, seed, seconds, smoke)
            for _ in range(2 if smoke else E2E_RUNS)
        ]
        traced = measure_layers(workload, seed, seconds, smoke)
        print_measurement(name, runs[0], LEDGER_END_TO_END)
        print_measurement(name, traced, PER_LAYER)
        failures = [line for run in runs + [traced] for line in run.failures]
        correct = correct and not failures
        ledger["workloads"][name] = {
            "end_to_end": {
                metric: {
                    "value": median(run.metrics[metric] for run in runs),
                    "unit": unit,
                    "values": [run.metrics[metric] for run in runs],
                }
                for metric, unit, _better, _bound in LEDGER_END_TO_END
            },
            "per_layer": {
                metric: {"value": traced.metrics[metric], "unit": unit}
                for metric, unit, _better in PER_LAYER
            },
            "attempted": runs[0].attempted,
            "failed": max(run.failed for run in runs),
            "replica_counter_lag_objects": runs[0].info["replica_counter_lag_objects"],
            "info": {"end_to_end": runs[0].info, "per_layer": traced.info},
            "failures": failures,
        }
    if out:
        with open(out, "w") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"# wrote {out}")
    print("# all checks passed" if correct else "# CHECKS FAILED")
    return 0 if correct else 1


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as handle_a, open(path_b) as handle_b:
        lines, regressions = compare(json.load(handle_a), json.load(handle_b))
    print("\n".join(lines))
    print(f"# {regressions} regressed")
    return 1 if regressions else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(RUN_SECONDS),
        help=f"host seconds a measured window targets; scales all windows by S/{NOMINAL_SECONDS:g}",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver contract mode")
    parser.add_argument("--smoke", action="store_true", help="1/20 windows; not comparable")
    parser.add_argument("--out", help="write the ledger JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return contract_run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    return ledger_run(names, args.seed, args.seconds, args.smoke, args.out)


if __name__ == "__main__":
    sys.exit(main())
