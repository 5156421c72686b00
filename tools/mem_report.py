#!/usr/bin/env python
"""Where a ledger workload's memory lives at the end of its measured window.

    PYTHONPATH=src:. python tools/mem_report.py [--workload agg_write_mix]
        [--seed 1] [--seconds 10] [--smoke] [--top 10]

Runs one untraced pass of one ``benchmarks/ledger`` workload in this
process (``benchmarks.ledger.child.run_pass``, with the windows the
benchmark uses for ``--seconds``, or its ``--smoke`` windows) under
``tracemalloc``.  When the measured window ends (the pass's second
counter snapshot) it takes a heap snapshot and prints the live MiB per
``repro.<package>``, the benchmark's own share (``benchmarks``) and the
rest (``other``: the standard library and anything else), then the lines
that allocated most of what is live.

An allocation is charged to the line that made it (one frame deep): a
value decoded by the replication codec counts under ``repro.kvstore``
even when a store holds it.  Only Python allocations are traced, so the
total is below the pass's peak RSS, which also holds the interpreter,
imported modules and allocator slack.  Tracing slows the pass about
threefold; the pass itself is unchanged, and so is what it simulates.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIB = 1024.0 * 1024.0


def owner(filename: str) -> str:
    """``repro.<package>``, ``benchmarks`` or ``other`` for a source file."""
    path = Path(filename)
    if path.is_relative_to(SRC / "repro"):
        parts = path.relative_to(SRC).parts
        return ".".join(parts[:2]) if len(parts) > 2 else "repro"
    if path.is_relative_to(ROOT / "benchmarks"):
        return "benchmarks"
    return "other"


def _where(filename: str) -> str:
    path = Path(filename)
    return str(path.relative_to(ROOT)) if path.is_relative_to(ROOT) else filename


@contextmanager
def snapshot_at_window_end(layers) -> Iterator[list]:
    """Take a tracemalloc snapshot when a pass reads its counters the
    second time, i.e. when its measured window has ended."""
    taken: list = []
    calls = 0
    original = layers.snapshot

    def snapshot(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == 2:
            taken.append(tracemalloc.take_snapshot())
        return original(*args, **kwargs)

    layers.snapshot = snapshot
    try:
        yield taken
    finally:
        layers.snapshot = original


def report(workload: str, seed: int, seconds: float, smoke: bool, top: int) -> str:
    from benchmarks.ledger import child, layers
    from benchmarks.ledger.runner import windows
    from benchmarks.ledger.spec import WORKLOADS_BY_NAME

    spec = WORKLOADS_BY_NAME[workload]
    warmup_ms, measured_ms, scale = windows(spec, seconds, smoke)
    with tempfile.TemporaryDirectory(prefix="mem-report-") as tmp:
        request = {
            "workload": workload,
            "seed": seed,
            "mode": "untraced",
            "warmup_ms": warmup_ms,
            "measured_ms": measured_ms,
            "verify": False,
            "durable": spec.durable,
            "tmp": tmp,
        }
        tracemalloc.start()
        try:
            with snapshot_at_window_end(layers) as taken:
                record = child.run_pass(request)
        finally:
            tracemalloc.stop()
    heap = taken[0].filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    by_owner: dict[str, int] = {}
    for stat in heap.statistics("filename"):
        name = owner(stat.traceback[0].filename)
        by_owner[name] = by_owner.get(name, 0) + stat.size
    total = sum(by_owner.values())
    lines = [
        f"{workload}, seed {seed}, window scale {scale:.3f}: "
        f"{record['jobs']} jobs, peak RSS {record['peak_rss_mb']:.1f} MiB (traced run)",
        f"live at the end of the measured window: {total / MIB:.2f} MiB traced",
        "",
        "live MiB by owner:",
    ]
    for name, size in sorted(by_owner.items(), key=lambda item: -item[1]):
        lines.append(f"  {size / MIB:8.2f}  {size / total:6.1%}  {name}")
    lines += ["", f"top {top} allocating lines:"]
    for stat in heap.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        lines.append(
            f"  {stat.size / MIB:8.2f}  {stat.count:9d}  {_where(frame.filename)}:{frame.lineno}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="agg_write_mix")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--smoke", action="store_true", help="the ledger's --smoke windows")
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args(argv)
    print(report(args.workload, args.seed, args.seconds, args.smoke, args.top))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(ROOT)]
    sys.exit(main(sys.argv[1:]))
