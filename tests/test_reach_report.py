"""``tools/reach_report.py`` on a small package: what it records and reports."""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reach_report", REPO_ROOT / "tools" / "reach_report.py"
)
reach_report = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach_report)

SOURCE = '''\
import functools


def used():
    return helper() + Thing().method()


def helper():
    return 1


class Thing:
    @functools.lru_cache(maxsize=None)
    def method(self):
        return 2

    def idle(self):
        def inner():
            return 3

        return inner()


def unused():
    return 4
'''


def _load(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "demo.py").write_text(SOURCE)
    spec = importlib.util.spec_from_file_location("demo", package / "demo.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return package, module


def test_only_the_functions_never_entered_are_reported(tmp_path):
    package, module = _load(tmp_path)
    called = reach_report.calls_during(module.used)
    missed = reach_report.never_called(reach_report.functions_in(package), called)
    # inner() is folded into idle(); the decorated method matched by its decorator line
    assert sorted(function.qualname for function in missed) == ["Thing.idle", "unused"]
    assert {function.module for function in missed} == {"demo"}


def test_report_groups_by_module_with_line_totals(tmp_path):
    package, module = _load(tmp_path)
    text = reach_report.report(package, reach_report.calls_during(module.used), "demo")
    lines = text.splitlines()
    assert lines[0] == "target: demo"
    assert lines[1] == "functions: 6 defined, 2 never called (7 lines)"
    assert lines[4].split() == ["7", "2", "demo"]
    assert [line.split() for line in lines[5:]] == [["5", "Thing.idle"], ["2", "unused"]]
