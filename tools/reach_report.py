#!/usr/bin/env python
"""Report the ``src/`` functions a run never calls, and the branches it
never takes in the functions it does call, grouped by module.

The target runs under ``sys.settrace``: every ``call`` event records its
code object and every ``line`` event its file and line.  Each function
``def`` under ``src/repro`` (found with ``ast``) that no recorded code
object matches is reported, with its lines counted as
``tools/size_report.py`` counts them (``def`` line to last line).  A
function nested in one that was never called is folded into its parent,
so no line is counted twice.  A second section lists, inside the
functions that were called, every ``if`` body, ``else`` body and
``except`` body of at least :data:`MIN_BRANCH_LINES` lines in which no
line ran (first statement to last line); a branch nested in one that
never ran is folded into it.

The target is every registry experiment at the micro scale of
``tests/bench/test_experiment_rows.py`` (``mc`` at the quick preset,
whose configs only grow at ``full``), the bench CLI's ``--metrics-out``
payload at micro scale, and the benchmark ledger's four workloads at
``--smoke`` windows.  Each workload runs an end-to-end pass with its
verification and a spans pass, through
``benchmarks.ledger.child.run_pass`` in this process: the ledger CLI
runs its passes in subprocesses the trace hook cannot see.  Output
files go to a temporary directory.  Stdlib only; the single-threaded
simulator needs no per-thread hook.

Smoke windows are too short for some paths the benchmark runs at scale
(no kvstore compaction fires in them, for one).  Below its title the
report prints each workload's ``expect_at_scale`` entries from
``benchmarks.ledger.spec``: the functions of those paths are listed as
never called, yet the benchmark runs them, so a deletion does not start
there.

Usage::

    python tools/reach_report.py
"""

from __future__ import annotations

import argparse
import ast
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``Calibration`` overrides of the quick preset: the micro scale
MICRO = dict(num_accounts=40, num_clients=4, duration_ms=60.0, warmup_ms=10.0, avg_follows=3)

#: the shortest ``if``/``else``/``except`` body the branch section lists
MIN_BRANCH_LINES = 4

#: (resolved file, first line, function name): what a code object and a
#: ``def`` agree on.  A decorated function's code starts at its first
#: decorator.
CodeKey = tuple[str, int, str]


class Function(NamedTuple):
    module: str
    qualname: str
    key: CodeKey
    lines: int
    #: key of the enclosing function, if this one is nested in a function
    parent: Optional[CodeKey]
    node: ast.AST


class Branch(NamedTuple):
    module: str
    #: the enclosing function's qualname, then the body's first line and
    #: kind, e.g. ``SimpleClient.invoke:81 else``
    qualname: str
    lines: int


class Trace(NamedTuple):
    #: the key of every Python function entered
    called: set[CodeKey]
    #: resolved file -> the lines that ran in it
    ran: dict[str, set[int]]


def trace_during(target: Callable[[], object]) -> Trace:
    """Run ``target()`` and record the functions it entered and the lines it ran."""
    codes = set()
    lines: dict[str, set[int]] = {}

    def on_call(frame, _event, _arg):
        code = frame.f_code
        codes.add(code)
        ran = lines.get(code.co_filename)
        if ran is None:
            ran = lines[code.co_filename] = set()
        add = ran.add

        def on_line(frame, event, _arg):
            if event == "line":
                add(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        target()
    finally:
        sys.settrace(None)
    resolved: dict[str, str] = {}

    def resolve(filename: str) -> str:
        path = resolved.get(filename)
        if path is None:
            path = resolved[filename] = str(Path(filename).resolve())
        return path

    called = {(resolve(code.co_filename), code.co_firstlineno, code.co_name) for code in codes}
    ran: dict[str, set[int]] = {}
    for filename, numbers in lines.items():
        ran.setdefault(resolve(filename), set()).update(numbers)
    return Trace(called, ran)


def functions_in(package: Path) -> list[Function]:
    """Every function ``def`` in the ``.py`` files under ``package``."""
    found: list[Function] = []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix().replace("/", ".")
        tree = ast.parse(path.read_text(), filename=str(path))
        filename = str(path.resolve())

        def walk(node, prefix, parent):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.", parent)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    key = (filename, first, child.name)
                    lines = child.end_lineno - child.lineno + 1
                    found.append(
                        Function(module, f"{prefix}{child.name}", key, lines, parent, child)
                    )
                    walk(child, f"{prefix}{child.name}.", key)

        walk(tree, "", None)
    return found


def never_called(functions: Iterable[Function], called: set[CodeKey]) -> list[Function]:
    """The functions ``called`` misses, minus those nested in one it misses."""
    missed = [function for function in functions if function.key not in called]
    missed_keys = {function.key for function in missed}
    return [function for function in missed if function.parent not in missed_keys]


def _bodies(statement: ast.stmt) -> Iterable[tuple[Optional[str], list[ast.stmt]]]:
    """The statement lists directly inside ``statement``, each with the
    kind the branch section reports it as (``None``: not reported)."""
    if isinstance(statement, ast.If):
        yield "if", statement.body
        orelse = statement.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            yield from _bodies(orelse[0])  # an elif: the chain's next branches
        elif orelse:
            yield "else", orelse
        return
    for handler in getattr(statement, "handlers", ()):
        yield "except", handler.body
    for field in ("body", "orelse", "finalbody"):
        body = getattr(statement, field, None)
        if body and isinstance(body[0], ast.stmt):
            yield None, body
    for case in getattr(statement, "cases", ()):
        yield None, case.body


def inert_branches(functions: Iterable[Function], trace: Trace) -> list[Branch]:
    """The ``if``/``else``/``except`` bodies of at least
    :data:`MIN_BRANCH_LINES` lines in which no line ran, inside the
    functions ``trace`` entered.  Nested functions and classes are left
    to their own entries; a body that never ran is not searched further."""
    found: list[Branch] = []
    for function in functions:
        if function.key not in trace.called:
            continue
        ran = trace.ran.get(function.key[0], set())

        def visit(statements: list[ast.stmt]) -> None:
            for statement in statements:
                if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    continue
                for kind, body in _bodies(statement):
                    first, last = body[0].lineno, body[-1].end_lineno
                    if any(line in ran for line in range(first, last + 1)):
                        visit(body)
                    elif kind is not None and last - first + 1 >= MIN_BRANCH_LINES:
                        label = f"{function.qualname}:{first} {kind}"
                        found.append(Branch(function.module, label, last - first + 1))

        visit(function.node.body)
    return found


def _by_module(items: Iterable[Function | Branch]) -> list[str]:
    """Report lines for ``items``: by module with line totals, largest first."""
    by_module: dict[str, list] = {}
    for item in items:
        by_module.setdefault(item.module, []).append(item)
    out = []
    ranked = sorted(
        by_module.items(), key=lambda entry: (-sum(i.lines for i in entry[1]), entry[0])
    )
    for module, members in ranked:
        out.append(f"  {sum(i.lines for i in members):5d}  {len(members):4d}  {module}")
        for item in sorted(members, key=lambda i: (-i.lines, i.qualname)):
            out.append(f"         {item.lines:5d}  {item.qualname}")
    return out


def at_scale_lines(workloads: Iterable) -> list[str]:
    """One line per ledger workload with ``expect_at_scale`` entries:
    what its full-length runs reach and its smoke windows do not."""
    lines = [
        f"  {workload.name}: "
        + ", ".join(f"{metric} {op} {value}" for metric, op, value in workload.expect_at_scale)
        for workload in workloads
        if workload.expect_at_scale
    ]
    if lines:
        lines.insert(0, "reached only at scale (benchmarks.ledger.spec expect_at_scale):")
    return lines


def report(package: Path, trace: Trace, title: str, at_scale: Iterable[str] = ()) -> str:
    functions = functions_in(package)
    missed = never_called(functions, trace.called)
    branches = inert_branches(functions, trace)
    out = [
        f"target: {title}",
        *at_scale,
        f"functions: {len(functions)} defined, {len(missed)} never called "
        f"({sum(f.lines for f in missed)} lines)",
        "",
        "never called, by module (lines  functions  module):",
        *_by_module(missed),
        "",
        f"branches: {len(branches)} if/else/except bodies of >= {MIN_BRANCH_LINES} lines "
        f"never ran in functions that did ({sum(b.lines for b in branches)} lines)",
        "",
        "never ran, by module (lines  branches  module):",
        *_by_module(branches),
    ]
    return "\n".join(out)


def registry_target(out_dir: str) -> Callable[[], None]:
    """Import the bench layer and run every registry experiment as the
    bench CLI would at ``--jobs 1``, then write the ``--metrics-out``
    payload and run the ledger passes.  The imports happen inside the
    target, so functions run at import count."""

    def target() -> None:
        from repro.bench.__main__ import write_json
        from repro.bench.calibration import preset
        from repro.bench.experiments import ALL_EXPERIMENTS, mc, run_experiment, run_matrix
        from repro.bench.observability import metrics_out_payload

        micro = preset("quick", **MICRO)
        matrix = None
        results = []
        for name in sorted(ALL_EXPERIMENTS):
            if name == "mc":
                mc(preset("quick"), out_path=str(Path(out_dir) / "BENCH_mc.json"))
                continue
            if ALL_EXPERIMENTS[name].uses_matrix and matrix is None:
                matrix = run_matrix(micro)
            results.append(run_experiment(name, micro, matrix)[0])
        write_json(str(Path(out_dir) / "metrics.json"), metrics_out_payload(micro, results))
        ledger_passes(out_dir)

    return target


def ledger_passes(out_dir: str) -> None:
    """Each ledger workload at ``--smoke`` windows, seed 1: an end-to-end
    pass that verifies the replicas afterwards, then a spans pass."""
    from benchmarks.ledger.child import run_pass
    from benchmarks.ledger.runner import windows
    from benchmarks.ledger.spec import WORKLOADS

    for workload in WORKLOADS:
        warmup_ms, measured_ms, _scale = windows(workload, 0.0, smoke=True)
        for mode, verify in (("untraced", True), ("spans", False)):
            run_pass(
                {
                    "workload": workload.name,
                    "seed": 1,
                    "mode": mode,
                    "warmup_ms": warmup_ms,
                    "measured_ms": measured_ms,
                    "verify": verify,
                    "durable": workload.durable,
                    "tmp": out_dir,
                }
            )


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    with tempfile.TemporaryDirectory() as out_dir:
        trace = trace_during(registry_target(out_dir))
    from benchmarks.ledger.spec import WORKLOADS

    title = (
        "every registry experiment and --metrics-out at micro scale (mc at quick), "
        "the ledger workloads at smoke windows"
    )
    print(report(REPO_ROOT / "src" / "repro", trace, title, at_scale_lines(WORKLOADS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
