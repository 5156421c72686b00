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
    assert "DBOptions" in text


def test_constructor_options_count_defaults_and_keyword_only_parameters():
    import ast

    tree = ast.parse(
        "class A:\n"
        "    def __init__(self, sim, name, seed=0, *, budget, trace=False):\n"
        "        pass\n"
        "class B:\n"
        "    def __init__(self, sim):\n"
        "        pass\n"
    )
    assert size_report._init_options(tree, "A") == 3
    assert size_report._init_options(tree, "B") == 0
    assert size_report._init_options(tree, "C") == 0
    text = size_report.report(REPO_ROOT, top=3)
    knobs = text.splitlines()[text.splitlines().index("config fields (knobs):") + 1 :]
    counted = {line.split()[1]: int(line.split()[0]) for line in knobs}
    assert set(counted) >= {
        "LocalRuntime.__init__",
        "ClusterClient.__init__",
        "SimpleClient.__init__",
        "RpcStub.__init__",
        "Network.__init__",
        "ReplicationPipeline.__init__",
        "ConsistencyChecker.__init__",
    }
    # the checker takes only the cluster; every other entry has options
    assert counted.pop("ConsistencyChecker.__init__") == 0
    assert all(count > 0 for count in counted.values())


def test_replication_pipeline_options_match_its_signature():
    import inspect

    from repro.cluster.replication import ReplicationPipeline

    text = size_report.report(REPO_ROOT, top=3)
    counted = {
        line.split()[1]: int(line.split()[0])
        for line in text.splitlines()[text.splitlines().index("config fields (knobs):") + 1 :]
    }
    parameters = inspect.signature(ReplicationPipeline.__init__).parameters.values()
    settable = sum(
        p.default is not p.empty or p.kind is p.KEYWORD_ONLY for p in parameters
    )
    assert counted["ReplicationPipeline.__init__"] == settable


def test_functions_are_named_by_module_and_qualified_name():
    import ast

    tree = ast.parse("class A:\n    def f(self):\n        def g():\n            pass\n")
    names = {name for _lines, name in size_report._functions(tree, "pkg.mod")}
    assert names == {"pkg.mod:A.f", "pkg.mod:A.f.g"}
