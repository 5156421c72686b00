#!/usr/bin/env python
"""Where a ledger workload's memory lives at the end of its measured window.

    PYTHONPATH=src:. python tools/mem_report.py [--workload agg_write_mix]
        [--seed 1] [--seconds 10] [--smoke] [--top 10]

Runs one untraced pass of one ``benchmarks/ledger`` workload in this
process (``benchmarks.ledger.child.run_pass``, with the windows the
benchmark uses for ``--seconds``, or its ``--smoke`` windows) under
``tracemalloc``.  It prints the traced peak of each phase of the pass:
build + load (up to the end of ``Dataset.load``), warm-up (up to the
pass's first counter snapshot) and the measured window (up to its
second), since a high-water mark set early stays in the peak RSS.  When
the measured window ends it also takes a heap snapshot and prints the
live MiB per ``repro.<package>``, the benchmark's own share
(``benchmarks``) and the rest (``other``: the standard library and
anything else), then the lines that allocated most of what is live.
It also counts the values the first replica's store holds then (a
durable store: its memtable, since the rest is on disk), the distinct
``bytes`` objects among them and their distinct contents: equal values
that are separate objects are memory a store pays for twice.

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


def first_store(platform):
    """``(name, store)`` of the platform's first replica."""
    if hasattr(platform, "storage_nodes"):  # the disaggregated baseline
        node = platform.storage_nodes[0]
        return node.name, node.backend
    name, node = next(iter(platform.nodes.items()))
    return name, node.runtime.storage


def value_counts(store) -> tuple[str, int, int, int]:
    """What a store holds in memory, and its values, distinct value
    objects and distinct contents."""
    from repro.kvstore.record import ValueType

    db = getattr(store, "db", None)
    if db is None:
        where = "store"
        values = [value for _key, value in store.iterate(b"", None)]
    else:
        where = "memtable"
        values = [record.value for record in db._mem if record.kind is ValueType.VALUE]
    return where, len(values), len({id(value) for value in values}), len(set(values))


#: the phases of a pass, in order, each ending at a hook below
PHASES = ("build + load", "warm-up", "measured window")


@contextmanager
def phase_hooks(layers, loadgen) -> Iterator[tuple[dict, list]]:
    """Record the traced peak of each phase and snapshot the heap when the
    measured window ends.

    Build + load ends when ``Dataset.load`` returns, warm-up when the pass
    reads its counters the first time and the measured window when it
    reads them the second time; the peak is reset at each boundary.
    Yields ``(peaks, taken)``: peak bytes by phase name, and the snapshot
    followed by the first replica's :func:`value_counts`.
    """
    peaks: dict[str, int] = {}
    taken: list = []
    calls = 0
    original_snapshot = layers.snapshot
    original_load = loadgen.Dataset.load

    def end_phase(name: str) -> None:
        peaks[name] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()

    def load(self, platform):
        result = original_load(self, platform)
        end_phase(PHASES[0])
        return result

    def snapshot(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls <= 2:
            end_phase(PHASES[calls])
        if calls == 2:
            taken.append(tracemalloc.take_snapshot())
            name, store = first_store(args[1])
            taken.append((name, *value_counts(store)))
        return original_snapshot(*args, **kwargs)

    layers.snapshot = snapshot
    loadgen.Dataset.load = load
    try:
        yield peaks, taken
    finally:
        layers.snapshot = original_snapshot
        loadgen.Dataset.load = original_load


def report(workload: str, seed: int, seconds: float, smoke: bool, top: int) -> str:
    from benchmarks.ledger import child, layers, loadgen
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
            with phase_hooks(layers, loadgen) as (peaks, taken):
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
        "traced peak MiB by phase:",
    ]
    lines += [f"  {peaks[name] / MIB:8.2f}  {name}" for name in PHASES]
    lines += ["", "live MiB by owner:"]
    for name, size in sorted(by_owner.items(), key=lambda item: -item[1]):
        lines.append(f"  {size / MIB:8.2f}  {size / total:6.1%}  {name}")
    node, where, values, objects, contents = taken[1]
    lines += [
        "",
        f"values in the first replica's {where} ({node}): {values:,} stored, "
        f"{objects:,} distinct objects, {contents:,} distinct contents",
    ]
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
