"""Command-line entry point: ``python -m repro.bench <experiment>``."""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.bench.calibration import preset
from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment, run_matrix


def write_json(path: str, payload: dict[str, Any]) -> None:
    """Write the ``--metrics-out`` payload, indented, to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=_jsonable)
        handle.write("\n")


def _jsonable(value: Any) -> Any:
    """Fallback serializer: snapshot-able objects, then strings."""
    snapshot = getattr(value, "snapshot", None)
    if callable(snapshot):
        return snapshot()
    return str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables/figures and the ablations.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="which artifact to regenerate (see DESIGN.md §4)",
    )
    parser.add_argument(
        "--preset",
        default="quick",
        choices=["quick", "full"],
        help="quick: laptop-scale (default); full: the paper's §5 parameters",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run independent simulations in N worker processes: the "
        "(workload x variant) matrix cells behind fig1/fig2/table1, and "
        "whole ablations when regenerating 'all'.  Every cell is an "
        "independent fixed-seed simulation, so the output rows are "
        "identical to --jobs 1; only the wall clock changes",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="also run one instrumented workload per architecture (span "
        "tracer on) and write the registry totals, network counters, span "
        "summary, the slowest-trace span tree, and this invocation's "
        "experiment rows to PATH as JSON",
    )
    args = parser.parse_args(argv)
    cal = preset(args.preset)
    jobs = max(1, args.jobs)

    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    # With --jobs N, dispatch the independent experiments to worker
    # processes up front; the shared matrix (itself cell-parallel; its
    # results reference the live platforms) and the result printing stay
    # in the parent, in deterministic name order.
    prerun: dict[str, tuple[dict, float]] = {}
    workers = [n for n in names if not ALL_EXPERIMENTS[n].uses_matrix]
    if jobs > 1 and len(workers) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(workers))) as pool:
            futures = {n: pool.submit(run_experiment, n, cal) for n in workers}
            prerun = {n: futures[n].result() for n in workers}

    exit_code = 0
    matrix = None
    results = []
    for name in names:
        started = time.time()
        if name in prerun:
            result, elapsed = prerun[name]
        else:
            if ALL_EXPERIMENTS[name].uses_matrix and matrix is None:
                matrix = run_matrix(cal, jobs=jobs)
            result, _seconds = run_experiment(name, cal, matrix)
            elapsed = time.time() - started
        results.append(result)
        print(result["text"])
        print(f"\n[{name} completed in {elapsed:.1f}s wall clock]\n")
        if name == "mc" and (
            result.get("violation_count") or not result.get("sensitivity_ok", True)
        ):
            # A §3.1 violation on the real protocol (or a vacuous
            # detector) must fail the run — CI keys off this exit code.
            exit_code = 1

    if args.metrics_out:
        from repro.bench.observability import metrics_out_payload

        started = time.time()
        payload = metrics_out_payload(cal, experiment_results=results)
        write_json(args.metrics_out, payload)
        print(
            f"[metrics snapshot written to {args.metrics_out} "
            f"in {time.time() - started:.1f}s wall clock]"
        )
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
