#!/usr/bin/env python
"""Alternating parent/change pairs of the repository's benchmark.

    python tools/bench_pairs.py --parent DIR --change DIR \\
        --workload agg_write_mix --seed 1 --pairs 10

Runs the command ``BENCHMARK.json`` declares (``--trace 0``, its own
``run_seconds``) once in each checkout per pair — odd pairs parent first,
even pairs change first — one process at a time, and prints every run.
For each wall-clock metric it then prints both sides' median and
quartiles, the pairs the change won (ties count for neither), and the
distance between the medians against the parent's interquartile range:
a gain may be claimed when the change wins at least nine tenths of the
pairs *and* the medians are further apart than that range.

Beside the wall clock it prints each run's CPU seconds: the user and
system time of the benchmark command and of every process it waited for
(a ``resource.getrusage(RUSAGE_CHILDREN)`` delta around the run), with
the same quartiles and pairs won.  CPU time is informational, and the
benchmark's wall-clock metrics stay the basis of any claim: it takes out
the time a process waits for a core on a shared box, but not all of the
box's noise.  On a shared 2-core box three identical ``agg_durable_writes``
passes took 13.4-16.3 s of wall time for the measured window while three
others took 9.96-10.36 s of process CPU, and a later batch of the same
passes still spread 9.9-13.4 s in CPU.

Everything simulated is a function of the seed, so the tool exits
non-zero when ``attempted``, ``failed`` or any ``sim_*`` / ``wire_*``
metric differs between any two runs: a change that moves one of those is
not a pure host-speed change, whatever its wall clock says.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Optional

#: share of pairs a claimed gain must win
WIN_SHARE = 0.9
#: result fields and metric prefixes that must not differ between runs
EXACT_FIELDS = ("attempted", "failed")
EXACT_PREFIXES = ("sim_", "wire_")
#: the field :func:`run_once` adds to a result: the CPU seconds of the run
CPU_FIELD = "cpu_s"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, the quartiles interpolated between the data
    points they fall between (one run: all three are that run)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(parent: list[float], change: list[float], better: str) -> dict:
    """Pair statistics of one metric; ``parent[i]`` and ``change[i]`` are
    the two runs of pair ``i`` and ``better`` is ``higher`` or ``lower``."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    gain = sign * (c_median - p_median)
    iqr = p_q3 - p_q1
    return {
        "pairs": len(parent),
        "won": won,
        "lost": lost,
        "parent": (p_q1, p_median, p_q3),
        "change": (c_q1, c_median, c_q3),
        "parent_iqr": iqr,
        #: distance between the medians, positive when the change is better
        "median_gain": gain,
        "ratio": c_median / p_median if p_median else float("nan"),
        "claimable": won >= WIN_SHARE * len(parent) and gain > iqr,
    }


def exact_values(result: dict) -> dict:
    """The seed-determined part of one result object."""
    values = {name: result.get(name) for name in EXACT_FIELDS}
    for name, entry in result["metrics"].items():
        if name.startswith(EXACT_PREFIXES):
            values[name] = entry["value"]
    return values


def exact_differences(results: list[tuple[str, dict]]) -> list[str]:
    """Every seed-determined value that is not the same in all ``(label,
    result object)`` runs as in the first, as printable lines."""
    problems = []
    first_label, first = results[0]
    reference = exact_values(first)
    for label, result in results[1:]:
        values = exact_values(result)
        for name in sorted(set(reference) | set(values)):
            if reference.get(name) != values.get(name):
                problems.append(
                    f"{name}: {reference.get(name)!r} ({first_label}) "
                    f"!= {values.get(name)!r} ({label})"
                )
    return problems


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_once(checkout: Path, command: list[str], args: argparse.Namespace, seconds) -> dict:
    """One measurement in ``checkout``; the result object is the last line
    the benchmark prints, plus the run's CPU seconds under
    :data:`CPU_FIELD`."""
    argv = command + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    cpu_before = _children_cpu_s()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    cpu_s = _children_cpu_s() - cpu_before
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed in {checkout}:\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result[CPU_FIELD] = cpu_s
    return result


def print_summary(title: str, parent: list[float], change: list[float], better: str) -> None:
    """The quartiles, pairs won and claim verdict of one metric."""
    summary = summarise(parent, change, better)
    p_q1, p_median, p_q3 = summary["parent"]
    c_q1, c_median, c_q3 = summary["change"]
    print(title)
    print(f"  parent  median {p_median:.6g}  q1-q3 {p_q1:.6g}-{p_q3:.6g}")
    print(f"  change  median {c_median:.6g}  q1-q3 {c_q1:.6g}-{c_q3:.6g}")
    print(
        f"  change/parent {summary['ratio']:.3f}; change better in {summary['won']} and "
        f"worse in {summary['lost']} of {summary['pairs']} pairs; medians apart by "
        f"{summary['median_gain']:.6g} (positive is better) against a parent "
        f"interquartile range of {summary['parent_iqr']:.6g}: "
        f"{'a gain may be claimed' if summary['claimable'] else 'no gain may be claimed'}"
    )


def report(spec: dict, parent: list[dict], change: list[dict]) -> int:
    """Print the summary of finished pairs; the exit status."""
    for entry in spec["end_to_end"]:
        name = entry["name"]
        if name.startswith(EXACT_PREFIXES):
            continue
        print_summary(
            f"{name} ({entry['unit']}, {entry['better']} is better)",
            [run["metrics"][name]["value"] for run in parent],
            [run["metrics"][name]["value"] for run in change],
            entry["better"],
        )
    if all(CPU_FIELD in run for run in parent + change):
        print_summary(
            f"{CPU_FIELD} (s, lower is better; informational, not a benchmark metric)",
            [run[CPU_FIELD] for run in parent],
            [run[CPU_FIELD] for run in change],
            "lower",
        )
    labelled = [(f"parent run {i + 1}", run) for i, run in enumerate(parent)]
    labelled += [(f"change run {i + 1}", run) for i, run in enumerate(change)]
    problems = exact_differences(labelled)
    for run_label, run in labelled:
        if not run.get("correct", False):
            problems.append(f"{run_label} did not verify its outputs")
    if problems:
        print("FAIL: the two sides are not comparable:")
        for line in problems:
            print(f"  {line}")
        return 1
    print("attempted, failed and every sim_*/wire_* metric are equal in all runs")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        for side in ("parent", "change") if pair % 2 else ("change", "parent"):
            result = run_once(sides[side], spec["command"], args, spec["run_seconds"])
            runs[side].append(result)
            host = {
                name: round(entry["value"], 3)
                for name, entry in result["metrics"].items()
                if not name.startswith(EXACT_PREFIXES)
            }
            host[CPU_FIELD] = round(result[CPU_FIELD], 3)
            print(f"pair {pair} {side}: {host}", flush=True)
    return report(spec, runs["parent"], runs["change"])


if __name__ == "__main__":
    sys.exit(main())
