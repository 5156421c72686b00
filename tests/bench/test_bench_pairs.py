"""The statistics of ``tools/bench_pairs.py`` on canned result objects.

No benchmark runs here: the tool's arithmetic (quartiles, pairs won, the
nine-tenths-and-interquartile-range rule) and its refusal of runs whose
seed-determined results differ are checked on hand-made result objects
shaped like the last line ``benchmarks/ledger/run.py`` prints.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", REPO_ROOT / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(host_jobs_per_s, setup_s=1.5, sim_jobs_per_s=8558.5, wire=4154.0, failed=0):
    metrics = {
        "setup_s": setup_s,
        "host_jobs_per_s": host_jobs_per_s,
        "host_peak_rss_mb": 100.0,
        "sim_jobs_per_s": sim_jobs_per_s,
        "wire_bytes_per_job": wire,
    }
    return {
        "correct": True,
        "attempted": 9855,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
    }


def test_quartiles_interpolate_between_runs():
    assert bench_pairs.quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert bench_pairs.quartiles([1.0, 3.0]) == (1.5, 2.0, 2.5)
    assert bench_pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    q1, median, q3 = bench_pairs.quartiles([float(n) for n in range(1, 11)])
    assert (q1, median, q3) == (3.25, 5.5, 7.75)


def test_clear_gain_is_claimable():
    parent = [1000.0, 990.0, 1010.0, 1005.0, 995.0, 1000.0, 1002.0, 998.0, 1001.0, 999.0]
    change = [value * 1.15 for value in parent]
    summary = bench_pairs.summarise(parent, change, "higher")
    assert (summary["won"], summary["lost"], summary["pairs"]) == (10, 0, 10)
    assert summary["ratio"] == pytest.approx(1.15)
    assert summary["median_gain"] > summary["parent_iqr"] > 0
    assert summary["claimable"]


def test_nine_of_ten_wins_but_eight_does_not():
    parent = [100.0] * 10
    nine = [110.0] * 9 + [90.0]
    eight = [110.0] * 8 + [90.0, 90.0]
    assert bench_pairs.summarise(parent, nine, "higher")["claimable"]
    summary = bench_pairs.summarise(parent, eight, "higher")
    assert (summary["won"], summary["lost"]) == (8, 2)
    assert not summary["claimable"]


def test_ties_count_for_neither_side():
    summary = bench_pairs.summarise([100.0] * 10, [100.0] * 2 + [120.0] * 8, "higher")
    assert (summary["won"], summary["lost"]) == (8, 0)
    assert not summary["claimable"]


def test_gain_inside_the_parents_spread_is_not_claimable():
    # The change wins every pair, but by less than the parent's own runs
    # differ from one another.
    parent = [900.0, 950.0, 1000.0, 1050.0, 1100.0, 900.0, 950.0, 1000.0, 1050.0, 1100.0]
    change = [value + 20.0 for value in parent]
    summary = bench_pairs.summarise(parent, change, "higher")
    assert summary["won"] == 10
    assert summary["parent_iqr"] == 100.0
    assert summary["median_gain"] == 20.0
    assert not summary["claimable"]


def test_lower_is_better_flips_the_sign():
    summary = bench_pairs.summarise([2.0, 2.1, 1.9, 2.0], [1.0, 1.1, 0.9, 1.0], "lower")
    assert (summary["won"], summary["lost"]) == (4, 0)
    assert summary["median_gain"] == pytest.approx(1.0)
    assert summary["claimable"]
    worse = bench_pairs.summarise([1.0, 1.1, 0.9, 1.0], [2.0, 2.1, 1.9, 2.0], "lower")
    assert (worse["won"], worse["lost"]) == (0, 4)
    assert worse["median_gain"] == pytest.approx(-1.0)
    assert not worse["claimable"]


def test_exact_differences_name_the_metric_and_the_runs():
    runs = [
        ("parent run 1", result(1000.0)),
        ("change run 1", result(1100.0)),
        ("change run 2", result(1200.0, setup_s=9.0)),
    ]
    assert bench_pairs.exact_differences(runs) == []
    runs.append(("change run 3", result(1100.0, sim_jobs_per_s=8558.4)))
    runs.append(("change run 4", result(1100.0, failed=1)))
    problems = bench_pairs.exact_differences(runs)
    assert len(problems) == 2
    assert problems[0].startswith("sim_jobs_per_s: 8558.5 (parent run 1) != 8558.4 (change run 3)")
    assert problems[1].startswith("failed: 0 (parent run 1) != 1 (change run 4)")


def test_report_fails_only_on_seed_determined_differences(capsys):
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parent = [result(1000.0 + n) for n in range(10)]
    change = [result(1150.0 + n) for n in range(10)]
    for run in parent + change:  # every end-to-end metric the benchmark declares
        for entry in spec["end_to_end"]:
            run["metrics"].setdefault(entry["name"], {"value": 1.0, "unit": entry["unit"]})
    assert bench_pairs.report(spec, parent, change) == 0
    out = capsys.readouterr().out
    assert "host_jobs_per_s (jobs/s, higher is better)" in out
    assert "change better in 10 and worse in 0 of 10 pairs" in out
    assert "a gain may be claimed" in out
    assert "sim_jobs_per_s (" not in out  # exact metrics are compared, not summarised

    change[3]["metrics"]["wire_bytes_per_job"]["value"] += 1.0
    assert bench_pairs.report(spec, parent, change) == 1
    assert "wire_bytes_per_job" in capsys.readouterr().out
    change[3]["metrics"]["wire_bytes_per_job"]["value"] -= 1.0
    change[0]["correct"] = False
    assert bench_pairs.report(spec, parent, change) == 1
    assert "change run 1 did not verify" in capsys.readouterr().out


def test_cpu_seconds_are_summarised_as_informational(capsys):
    spec = {"end_to_end": [{"name": "host_jobs_per_s", "unit": "jobs/s", "better": "higher"}]}
    parent = [result(1000.0) for _ in range(4)]
    change = [result(1000.0) for _ in range(4)]
    for run, cpu_s in zip(parent + change, [10.0, 11.0, 12.0, 13.0, 9.0, 10.5, 12.5, 11.0]):
        run[bench_pairs.CPU_FIELD] = cpu_s
    assert bench_pairs.report(spec, parent, change) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("cpu_s (s, lower is better; informational, not a benchmark metric)")
    assert lines[at + 1] == "  parent  median 11.5  q1-q3 10.75-12.25"
    assert lines[at + 2] == "  change  median 10.75  q1-q3 10.125-11.375"
    assert "change better in 3 and worse in 1 of 4 pairs" in lines[at + 3]
    assert lines[at + 3].endswith("no gain may be claimed")
    # Results without the field (canned or older runs) print no CPU block.
    for run in parent:
        del run[bench_pairs.CPU_FIELD]
    bench_pairs.report(spec, parent, change)
    assert "cpu_s" not in capsys.readouterr().out


def test_run_once_adds_the_cpu_seconds_of_the_command(tmp_path):
    busy = "sum(range(3_000_000)); print('{\"metrics\": {}}')"
    args = bench_pairs.argparse.Namespace(workload="w", seed=1)
    run = bench_pairs.run_once(tmp_path, [sys.executable, "-c", busy], args, 1)
    assert run["metrics"] == {}
    assert 0.0 < run[bench_pairs.CPU_FIELD] < 30.0


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_fewer_than_one_pair_is_a_usage_error(pairs, capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", ".", "--change", ".", "--workload", "w", "--pairs", pairs])
    assert exit_info.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
