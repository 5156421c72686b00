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


def used(flag=False):
    total = helper() + Thing().method()
    if flag:
        total += 10
        total *= 2
        total -= 1
        total //= 3
    else:
        total += 0
    try:
        total += 1
    except TypeError:
        return -1
    return total


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
    called = reach_report.trace_during(module.used).called
    missed = reach_report.never_called(reach_report.functions_in(package), called)
    # inner() is folded into idle(); the decorated method matched by its decorator line
    assert sorted(function.qualname for function in missed) == ["Thing.idle", "unused"]
    assert {function.module for function in missed} == {"demo"}


def test_only_the_long_branches_that_never_ran_are_reported(tmp_path):
    package, module = _load(tmp_path)
    trace = reach_report.trace_during(module.used)
    branches = reach_report.inert_branches(reach_report.functions_in(package), trace)
    # the else and the one-line except body are too short to list; the
    # functions never entered have no branch entries of their own
    assert branches == [reach_report.Branch("demo", "used:7 if", 4)]


def test_report_groups_by_module_with_line_totals(tmp_path):
    package, module = _load(tmp_path)
    text = reach_report.report(package, reach_report.trace_during(module.used), "demo")
    lines = text.splitlines()
    assert lines[0] == "target: demo"
    assert lines[1] == "functions: 6 defined, 2 never called (7 lines)"
    assert lines[4].split() == ["7", "2", "demo"]
    assert [line.split() for line in lines[5:7]] == [["5", "Thing.idle"], ["2", "unused"]]
    assert lines[8] == (
        "branches: 1 if/else/except bodies of >= 4 lines never ran in functions "
        "that did (4 lines)"
    )
    assert [line.split() for line in lines[11:]] == [["4", "1", "demo"], ["4", "used:7", "if"]]


def test_the_paths_only_runs_at_scale_reach_are_named_below_the_title(tmp_path):
    from benchmarks.ledger.spec import WORKLOADS

    at_scale = reach_report.at_scale_lines(WORKLOADS)
    assert at_scale[0] == "reached only at scale (benchmarks.ledger.spec expect_at_scale):"
    assert "  agg_durable_writes: kvstore.flushes >= 12, kvstore.compactions >= 3" in at_scale
    package, module = _load(tmp_path)
    trace = reach_report.trace_during(module.used)
    lines = reach_report.report(package, trace, "demo", at_scale).splitlines()
    assert lines[: len(at_scale) + 1] == ["target: demo", *at_scale]
    assert lines[len(at_scale) + 1].startswith("functions: 6 defined")
