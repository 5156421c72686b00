"""``tools/size_report.py`` on this repository: its sections and sums."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "size_report", REPO_ROOT / "tools" / "size_report.py"
)
size_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size_report)


def test_report_sections_and_package_sum():
    text = size_report.report(REPO_ROOT, top=3)
    lines = text.splitlines()
    total = int(lines[0].split(":")[1])
    packages = lines[lines.index("lines per package:") + 1 : lines.index("largest 3 files:") - 1]
    assert sum(int(line.split()[0]) for line in packages) == total
    files = lines[lines.index("largest 3 files:") + 1 : lines.index("largest 3 functions:") - 1]
    assert len(files) == 3 and all(" src/repro/" in line for line in files)
    functions = lines[lines.index("largest 3 functions:") + 1 :]
    assert all(":" in line for line in functions[:3])
    assert "ClusterConfig" in text and "ServerlessConfig" in text and "Calibration" in text


def test_functions_are_named_by_module_and_qualified_name():
    import ast

    tree = ast.parse("class A:\n    def f(self):\n        def g():\n            pass\n")
    names = {name for _lines, name in size_report._functions(tree, "pkg.mod")}
    assert names == {"pkg.mod:A.f", "pkg.mod:A.f.g"}
