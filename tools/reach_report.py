#!/usr/bin/env python
"""Report the ``src/`` functions a run never calls, grouped by module.

The target runs under ``sys.setprofile``; every ``call`` event records
its code object.  Each function ``def`` under ``src/repro`` (found with
``ast``) that no recorded code object matches is reported, with its
lines counted as ``tools/size_report.py`` counts them (``def`` line to
last line).  A function nested in one that was never called is folded
into its parent, so no line is counted twice.

The target is every registry experiment at the micro scale of
``tests/bench/test_experiment_rows.py``; ``mc`` runs at the quick preset
(its configs only grow at ``full``) and writes its JSON to a temporary
directory.  Stdlib only; the single-threaded simulator needs no
per-thread hook.

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


def calls_during(target: Callable[[], object]) -> set[CodeKey]:
    """Run ``target()`` and return the key of every Python function it entered."""
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        target()
    finally:
        sys.setprofile(None)
    resolved: dict[str, str] = {}
    keys = set()
    for code in codes:
        path = resolved.get(code.co_filename)
        if path is None:
            path = resolved[code.co_filename] = str(Path(code.co_filename).resolve())
        keys.add((path, code.co_firstlineno, code.co_name))
    return keys


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
                    found.append(Function(module, f"{prefix}{child.name}", key, lines, parent))
                    walk(child, f"{prefix}{child.name}.", key)

        walk(tree, "", None)
    return found


def never_called(functions: Iterable[Function], called: set[CodeKey]) -> list[Function]:
    """The functions ``called`` misses, minus those nested in one it misses."""
    missed = [function for function in functions if function.key not in called]
    missed_keys = {function.key for function in missed}
    return [function for function in missed if function.parent not in missed_keys]


def report(package: Path, called: set[CodeKey], title: str) -> str:
    functions = functions_in(package)
    missed = never_called(functions, called)
    by_module: dict[str, list[Function]] = {}
    for function in missed:
        by_module.setdefault(function.module, []).append(function)
    total = sum(function.lines for function in missed)
    out = [
        f"target: {title}",
        f"functions: {len(functions)} defined, {len(missed)} never called ({total} lines)",
        "",
        "never called, by module (lines  functions  module):",
    ]
    ranked = sorted(
        by_module.items(), key=lambda item: (-sum(f.lines for f in item[1]), item[0])
    )
    for module, members in ranked:
        out.append(f"  {sum(f.lines for f in members):5d}  {len(members):4d}  {module}")
        for function in sorted(members, key=lambda f: (-f.lines, f.qualname)):
            out.append(f"         {function.lines:5d}  {function.qualname}")
    return "\n".join(out)


def registry_target(out_dir: str) -> Callable[[], None]:
    """Import the bench layer and run every registry experiment as the
    bench CLI would at ``--jobs 1``.  The imports happen inside the
    target, so functions run at import count."""

    def target() -> None:
        from repro.bench.calibration import preset
        from repro.bench.experiments import ALL_EXPERIMENTS, mc, run_experiment, run_matrix

        micro = preset("quick", **MICRO)
        matrix = None
        for name in sorted(ALL_EXPERIMENTS):
            if name == "mc":
                mc(preset("quick"), out_path=str(Path(out_dir) / "BENCH_mc.json"))
                continue
            if ALL_EXPERIMENTS[name].uses_matrix and matrix is None:
                matrix = run_matrix(micro)
            run_experiment(name, micro, matrix)

    return target


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sys.path.insert(0, str(REPO_ROOT / "src"))
    with tempfile.TemporaryDirectory() as out_dir:
        called = calls_during(registry_target(out_dir))
    title = "every registry experiment at micro scale (mc at quick)"
    print(report(REPO_ROOT / "src" / "repro", called, title))
    return 0


if __name__ == "__main__":
    sys.exit(main())
