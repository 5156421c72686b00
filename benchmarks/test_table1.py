"""Table 1: the architecture comparison, with measured latency classes.

The latency row is the measurable one: LambdaObjects "Low (1-10ms)",
conventional serverless "High (>100ms)" — the latter driven by cold
starts; warm-path latency sits between the two.
"""

from repro.bench.experiments import table1
from repro.bench.harness import DISAGGREGATED, startup_latencies

from benchmarks.conftest import run_once


def test_table1_architecture_comparison(benchmark, cal):
    result = run_once(benchmark, table1, cal)
    assert len(result["rows"]) == 6  # the paper's six metric rows
    assert "Latency" in result["evidence"]


def test_table1_latency_classes(benchmark, cal):
    """Cold-start latency puts conventional serverless in the >100 ms class."""
    cold_ms = run_once(
        benchmark, lambda: startup_latencies(cal, DISAGGREGATED, prewarm=False)[0]
    )
    assert cold_ms > 100.0
