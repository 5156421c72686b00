"""Ablation: overload protection and multi-tenant QoS.

An open-loop write storm on Zipf-hot objects, offered at multiples of
the probed saturation rate.  Without admission control queues grow
without bound and goodput (completions within the latency SLO) collapses
toward zero; with per-tenant token buckets + backpressure the excess is
shed at arrival with server-advised backoff and goodput plateaus near
capacity.  The fairness check gives one tenant 3x its fair share and
asserts the buckets keep Jain's index near 1.
"""

from repro.bench.experiments.overload import OVERLOAD_SLO_MS, abl_overload

from benchmarks.conftest import run_once


def test_overload_admission_holds_goodput_and_fairness(benchmark, cal):
    result = run_once(benchmark, abl_overload, cal)

    by_cell = {
        (row["offered_x_capacity"], row["admission"]): row for row in result["rows"]
    }
    on_rows = [row for row in result["rows"] if row["admission"] == "on"]
    peak_on = max(row["goodput_per_sec"] for row in on_rows)
    top = max(row["offered_x_capacity"] for row in result["rows"])

    benchmark.extra_info["capacity_per_sec"] = result["capacity_per_sec"]
    benchmark.extra_info["slo_ms"] = OVERLOAD_SLO_MS
    benchmark.extra_info["goodput_on_2x"] = by_cell[(2.0, "on")]["goodput_per_sec"]
    benchmark.extra_info["goodput_off_top"] = by_cell[(top, "off")]["goodput_per_sec"]
    benchmark.extra_info["goodput_on_top"] = by_cell[(top, "on")]["goodput_per_sec"]

    # The headline acceptance gate: with admission on, goodput at 2x the
    # saturation rate stays within 80% of the best admission-on goodput
    # anywhere in the sweep (a plateau, not a cliff).
    assert by_cell[(2.0, "on")]["goodput_per_sec"] >= 0.8 * peak_on
    # Without admission the same offered load eventually collapses: at
    # the top of the sweep the uncontrolled run keeps under a quarter of
    # the controlled run's goodput.
    assert (
        by_cell[(top, "off")]["goodput_per_sec"]
        < 0.25 * by_cell[(top, "on")]["goodput_per_sec"]
    )
    # Admission actually shed (the plateau is shedding, not spare room).
    assert by_cell[(2.0, "on")]["shed_by_server"] > 0
    assert by_cell[(top, "off")]["shed_by_server"] == 0

    # Fairness: per-tenant buckets keep the aggressive tenant from
    # crowding the others out.
    fairness = {row["admission"]: row for row in result["fairness_rows"]}
    benchmark.extra_info["fairness_off"] = fairness["off"]["fairness_index"]
    benchmark.extra_info["fairness_on"] = fairness["on"]["fairness_index"]
    assert fairness["on"]["fairness_index"] >= 0.9
    assert fairness["on"]["fairness_index"] > fairness["off"]["fairness_index"]
    assert fairness["on"]["others_goodput"] >= fairness["off"]["others_goodput"]

    # Protect-reads: lock-queue backpressure keeps the reader tenant's
    # tail flat through the storm and does not cost write goodput.
    protect = result["protect_rows"]
    off_row, on_row = protect[0], protect[1]
    benchmark.extra_info["read_p99_off_ms"] = off_row["read_p99_ms"]
    benchmark.extra_info["read_p99_on_ms"] = on_row["read_p99_ms"]
    assert on_row["read_p99_ms"] <= off_row["read_p99_ms"]
    assert on_row["read_goodput"] >= 0.95 * off_row["read_goodput"]
    assert on_row["write_goodput"] >= off_row["write_goodput"]
    assert on_row["shed_by_server"] > 0
