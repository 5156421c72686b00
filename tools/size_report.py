#!/usr/bin/env python
"""Report the size of ``src/``: lines per package, the largest files, the
largest functions, the settable fields of each config dataclass and the
settable parameters of the main constructors.

Stdlib only (``ast``); lines are physical lines, as ``wc -l`` counts
them, and a function's size runs from its ``def`` line to its last line.

Usage::

    python tools/size_report.py [--top N]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: (file under src/repro, dataclass) whose fields are the settable knobs
CONFIGS = (
    ("cluster/cluster.py", "ClusterConfig"),
    ("serverless/platform.py", "ServerlessConfig"),
    ("bench/calibration.py", "Calibration"),
    ("kvstore/db.py", "DBOptions"),
)

#: (file under src/repro, class) whose ``__init__`` options are knobs too
CONSTRUCTORS = (
    ("core/runtime.py", "LocalRuntime"),
    ("cluster/client.py", "ClusterClient"),
    ("serverless/client.py", "SimpleClient"),
    ("rpc/stub.py", "RpcStub"),
    ("sim/network.py", "Network"),
    ("cluster/replication.py", "ReplicationPipeline"),
    ("chaos/checker.py", "ConsistencyChecker"),
)


def _functions(tree: ast.AST, module: str):
    """``(lines, "module:Qual.name")`` for every function, nested ones too."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    yield child.end_lineno - child.lineno + 1, f"{module}:{name}"
                yield from walk(child, f"{name}.")

    yield from walk(tree, "")


def _config_fields(tree: ast.AST, class_name: str) -> int:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return sum(
                isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                for stmt in node.body
            )
    return 0


def _init_options(tree: ast.AST, class_name: str) -> int:
    """Settable ``__init__`` parameters: those with a default, plus
    every keyword-only one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                    return len(stmt.args.defaults) + len(stmt.args.kwonlyargs)
    return 0


def report(root: Path, top: int = 10) -> str:
    src = root / "src" / "repro"
    packages: dict[str, int] = {}
    files: list[tuple[int, str]] = []
    functions: list[tuple[int, str]] = []
    trees: dict[str, ast.AST] = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        text = path.read_text()
        lines = len(text.splitlines())
        package = rel.split("/")[0] if "/" in rel else "(top level)"
        packages[package] = packages.get(package, 0) + lines
        files.append((lines, f"src/repro/{rel}"))
        tree = ast.parse(text, filename=str(path))
        trees[rel] = tree
        module = rel[: -len(".py")].replace("/", ".")
        functions.extend(_functions(tree, module))

    out = [f"src/ lines: {sum(packages.values())}", "", "lines per package:"]
    for package, lines in sorted(packages.items(), key=lambda item: (-item[1], item[0])):
        out.append(f"  {lines:7d}  {package}")
    out += ["", f"largest {top} files:"]
    for lines, name in sorted(files, key=lambda item: (-item[0], item[1]))[:top]:
        out.append(f"  {lines:7d}  {name}")
    out += ["", f"largest {top} functions:"]
    for lines, name in sorted(functions, key=lambda item: (-item[0], item[1]))[:top]:
        out.append(f"  {lines:7d}  {name}")
    out += ["", "config fields (knobs):"]
    for rel, class_name in CONFIGS:
        tree = trees.get(rel)
        count = _config_fields(tree, class_name) if tree is not None else 0
        out.append(f"  {count:7d}  {class_name}")
    for rel, class_name in CONSTRUCTORS:
        tree = trees.get(rel)
        count = _init_options(tree, class_name) if tree is not None else 0
        out.append(f"  {count:7d}  {class_name}.__init__")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=10, help="entries per ranking")
    args = parser.parse_args(argv)
    print(report(Path(__file__).resolve().parent.parent, top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
