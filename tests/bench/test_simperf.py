"""simperf microbenchmark: row structure, artifact, and the CI guard."""

import json

import pytest

from repro.bench import simperf as sp


def test_event_lane_row_counts_events():
    row = sp._bench_event_lane(200)
    assert row["bench"] == "event_lane"
    assert row["events"] > 400  # two puts/gets per iteration, at least
    assert row["events_per_sec"] > 0


def test_timers_row_counts_events():
    row = sp._bench_timers(chains=5, steps=5)
    assert row["bench"] == "timers"
    assert row["events"] >= 25


def test_deadline_waits_row_does_not_carry_the_deadlines_it_beat():
    from repro.sim.core import CANCELLED_TIMEOUTS_FLOOR

    waiters, rounds = 10, 100
    row = sp._bench_deadline_waits(waiters=waiters, rounds=rounds)
    assert row["bench"] == "deadline_waits"
    # per wait: the trigger, the deadline, the signal's and the condition's
    # wake-up; per waiter: its start and its end (the gate listens)
    assert row["events"] == 4 * waiters * rounds + 2 * waiters
    # Each waiter has at most a trigger and a deadline in the heap and two
    # wake-ups in the now lane: the heap stays within floor + 2 x live,
    # where one deadline per wait ever made would be 1,000.
    assert row["peak_pending"] <= CANCELLED_TIMEOUTS_FLOOR + 6 * waiters


def test_network_row_reports_messages():
    row = sp._bench_network(pairs=2, messages=20)
    assert row["bench"] == "network"
    assert row["messages"] == 40
    assert row["messages_per_sec"] > 0


def _fake_retwis(cal, bench="retwis_invoke", trace_sample_rate=None, **_overrides):
    per_invocation = {"retwis_invoke_nogc": 8.0, "retwis_invoke_coalesced": 2.0}.get(
        bench, 4.0
    )
    row = {
        "bench": bench,
        "events": 1000,
        "peak_pending": 10,
        "wall_s": 0.1,
        "events_per_sec": 10_000.0,
        "invocations": 50,
        "invocations_per_sec": 500.0,
        "messages": 200,
        "messages_per_sec": 2_000.0,
        "messages_per_invocation": per_invocation,
    }
    if trace_sample_rate is not None:
        row["trace_sample_rate"] = trace_sample_rate
        row["spans_recorded"] = 10 if trace_sample_rate < 1.0 else 100
    return row


def _tiny_sizes(monkeypatch):
    monkeypatch.setitem(
        sp._SIZES,
        "quick",
        {
            "ping_iters": 100,
            "chains": 3,
            "steps": 3,
            "pairs": 2,
            "messages": 5,
            "waiters": 3,
            "rounds": 3,
        },
    )


def test_simperf_writes_artifact(tmp_path, monkeypatch):
    # Stub the macro rows: the full retwis runs are seconds of wall clock
    # and are exercised by the bench CLI; here we pin the payload shape.
    _tiny_sizes(monkeypatch)
    monkeypatch.setattr(sp, "_bench_retwis", _fake_retwis)
    out = tmp_path / "BENCH_simperf.json"
    result = sp.simperf(out_path=str(out))
    assert [row["bench"] for row in result["rows"]] == [
        "event_lane",
        "timers",
        "deadline_waits",
        "network",
        "retwis_invoke",
        "retwis_invoke_nogc",
        "retwis_invoke_coalesced",
        "retwis_invoke_traced",
        "retwis_invoke_sampled",
    ]
    assert result["headline"]["invocations_per_sec"] == 500.0
    assert "headline (retwis_invoke): 500 invocations/s" in result["text"]
    assert result["headline"]["messages_per_invocation"] == 4.0
    assert "50.0% fewer" in result["text"]
    assert "coalescing: 2.00 messages/invocation vs 4.00 without" in result["text"]
    assert "tracing A/B" in result["text"]
    payload = json.loads(out.read_text())
    assert payload["schema"] == 6
    assert payload["headline"] == result["headline"]
    by_bench = {row["bench"]: row for row in payload["rows"]}
    assert by_bench["timers"]["peak_pending"] == 3  # the three chains' starts
    assert by_bench["retwis_invoke_sampled"]["trace_sample_rate"] == 0.1
    assert by_bench["retwis_invoke_traced"]["trace_sample_rate"] == 1.0


def test_simperf_profile_writes_report(tmp_path, monkeypatch):
    _tiny_sizes(monkeypatch)
    monkeypatch.setattr(sp, "_bench_retwis", _fake_retwis)
    out = tmp_path / "BENCH_simperf.json"
    result = sp.simperf(out_path=str(out), profile=True)
    report = tmp_path / "BENCH_simperf_profile.txt"
    assert report.exists()
    text = report.read_text()
    # One section per row, sorted by cumulative time, truncated to 25.
    for bench in ("event_lane", "timers", "deadline_waits", "network", "retwis_invoke_sampled"):
        assert f"=== {bench} " in text
    assert "cumulative" in text
    assert str(report) in result["text"]


def _result(invocations_per_sec: float, rows=()) -> dict:
    return {"headline": {"invocations_per_sec": invocations_per_sec}, "rows": list(rows)}


def _baseline(tmp_path, invocations_per_sec: float, rows=()) -> str:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(_result(invocations_per_sec, rows)))
    return str(path)


def _timers(events: int, wall_s: float) -> dict:
    return {
        "bench": "timers",
        "events": events,
        "wall_s": wall_s,
        "events_per_sec": round(events / wall_s, 1),
    }


def test_guard_passes_within_tolerance(tmp_path):
    ok, message = sp.check_guard(_result(400), _baseline(tmp_path, 500))
    assert ok
    assert "ok" in message


def test_guard_fails_below_tolerance(tmp_path):
    ok, message = sp.check_guard(_result(300), _baseline(tmp_path, 500))
    assert not ok
    assert "FAILED" in message
    assert "headline" in message


def test_guard_is_on_wall_time_not_events_per_sec(tmp_path):
    # The committed baseline row, and the row as measured once the
    # scheduler stopped taking an entry per trigger: half the events in
    # three quarters of the time.  Events/s fell by a third — below the
    # old guard's floor — yet the row got faster, and the wall-time guard
    # passes it ...
    before, after = _timers(60_401, 0.1008), _timers(30_400, 0.0759)
    assert after["events_per_sec"] < before["events_per_sec"] * (1 - sp.GUARD_TOLERANCE)
    baseline = _baseline(tmp_path, 500, [before])
    ok, message = sp.check_guard(_result(500, [after]), baseline)
    assert ok, message
    # ... while the same code made 40% slower fails against its own
    # baseline, whatever its event count says.
    baseline = _baseline(tmp_path, 500, [after])
    slower = _timers(30_400, round(0.0759 * 1.4, 4))
    ok, message = sp.check_guard(_result(500, [slower]), baseline)
    assert not ok
    assert "timers" in message and "is above" in message


def test_guard_checks_every_row(tmp_path):
    # A regression in one micro row fails the guard even when the headline
    # (and every other row) improved.
    rows = [
        {"bench": "event_lane", "wall_s": 0.2},
        {"bench": "timers", "wall_s": 0.05},
    ]
    baseline_rows = [
        {"bench": "event_lane", "wall_s": 0.1},
        {"bench": "timers", "wall_s": 0.1},
    ]
    ok, message = sp.check_guard(
        _result(600, rows), _baseline(tmp_path, 500, baseline_rows)
    )
    assert not ok
    assert "event_lane" in message
    assert "timers" not in message


def test_guard_ignores_rows_missing_from_baseline(tmp_path):
    # Schema growth: new rows without a baseline counterpart are skipped.
    rows = [{"bench": "retwis_invoke_sampled", "wall_s": 1e9}]
    ok, message = sp.check_guard(_result(500, rows), _baseline(tmp_path, 500))
    assert ok
    assert "of 0 rows" in message  # zero rows checked, headline only


def test_guard_skipped_without_baseline(tmp_path):
    ok, message = sp.check_guard(_result(1.0), str(tmp_path / "missing.json"))
    assert ok
    assert "no baseline" in message


def test_guard_skipped_via_env(tmp_path, monkeypatch):
    monkeypatch.setenv(sp.GUARD_SKIP_ENV, "1")
    ok, message = sp.check_guard(_result(1.0), _baseline(tmp_path, 500))
    assert ok
    assert "skipped" in message


def test_simperf_registered_as_experiment():
    from repro.bench.experiments import ALL_EXPERIMENTS

    assert ALL_EXPERIMENTS["simperf"] is sp.simperf
