"""Tests for calibration, report rendering, and the harness plumbing.

Full experiment regeneration is exercised by ``benchmarks/``; these tests
cover the harness at micro scale so plumbing bugs surface in the unit
suite.
"""

from dataclasses import replace

import pytest

from repro.bench.calibration import Calibration, PAPER_FIG1, PAPER_TABLE1, preset
from repro.bench.harness import (
    AGGREGATED,
    DISAGGREGATED,
    READ_HEAVY_MIX,
    build_platform,
    load_dataset,
    run_retwis,
)
from repro.bench.report import format_bars, format_comparison, format_table
from repro.sim import Simulation
from repro.workload.retwis_load import RetwisWorkload

MICRO = preset(
    "quick", num_accounts=40, num_clients=4, duration_ms=60.0, warmup_ms=10.0, avg_follows=3
)


# -- calibration ------------------------------------------------------------


def test_presets_exist():
    assert preset("quick").num_accounts < preset("full").num_accounts
    assert preset("full").num_accounts == 10_000
    assert preset("full").num_clients == 100


def test_preset_overrides():
    cal = preset("quick", num_clients=7)
    assert cal.num_clients == 7
    assert isinstance(cal, Calibration)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset("nope")


def test_paper_reference_values_present():
    assert PAPER_FIG1["Post"]["aggregated"] == 1309
    assert len(PAPER_TABLE1) == 6


# -- report rendering -------------------------------------------------------


def test_format_table_alignment():
    text = format_table(["a", "long_header"], [[1, 2], [333, 4]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "long_header" in lines[0]


def test_format_bars_normalises():
    text = format_bars("title", {"x": 100.0, "y": 50.0})
    lines = text.splitlines()
    assert lines[0] == "title"
    assert lines[1].count("#") == 2 * lines[2].count("#")


def test_format_bars_empty():
    assert "(no data)" in format_bars("t", {})


def test_format_comparison_includes_paper_values():
    rows = [{"workload": "Post", "x": 1}]
    text = format_comparison("exp", rows, {"Post": {"aggregated": 9}})
    assert "Paper-reported" in text
    assert "aggregated=9" in text


# -- harness ------------------------------------------------------------


def test_build_platform_variants():
    sim = Simulation(seed=0)
    cluster = build_platform(AGGREGATED, sim, MICRO)
    assert len(cluster.nodes) == MICRO.num_storage_nodes
    sim2 = Simulation(seed=0)
    baseline = build_platform(DISAGGREGATED, sim2, MICRO)
    assert len(baseline.storage_nodes) == MICRO.num_storage_nodes
    with pytest.raises(ValueError):
        build_platform("nope", sim, MICRO)


def test_load_dataset_scales_with_calibration():
    sim = Simulation(seed=0)
    platform = build_platform(AGGREGATED, sim, MICRO)
    dataset = load_dataset(platform, MICRO)
    assert len(dataset.accounts) == MICRO.num_accounts


@pytest.mark.parametrize("variant", [AGGREGATED, DISAGGREGATED])
def test_run_retwis_micro(variant):
    result = run_retwis(variant, RetwisWorkload.GET_TIMELINE, MICRO)
    assert result.report.completed > 0
    assert result.throughput > 0
    assert result.median_ms > 0
    assert result.p99_ms >= result.median_ms


def test_run_retwis_deterministic():
    first = run_retwis(AGGREGATED, RetwisWorkload.FOLLOW, MICRO)
    second = run_retwis(AGGREGATED, RetwisWorkload.FOLLOW, MICRO)
    assert first.report.completed == second.report.completed
    assert first.median_ms == second.median_ms


def test_run_retwis_mix_reports_every_method_and_keeps_the_run():
    run = run_retwis(AGGREGATED, READ_HEAVY_MIX, MICRO)
    assert run.workload == "mix"
    assert set(run.driver.reports) == {"get_timeline", "create_post", "follow"}
    assert run.total_throughput == sum(
        report.throughput_per_sec for report in run.driver.reports.values()
    )
    assert run.sim is run.platform.sim


def test_run_retwis_raises_when_nothing_completes():
    with pytest.raises(RuntimeError, match="no completions"):
        run_retwis(AGGREGATED, RetwisWorkload.POST, replace(MICRO, duration_ms=0.0, warmup_ms=0.0))
