"""Simulator throughput microbenchmark (the repo's perf trajectory).

Every other experiment in :mod:`repro.bench` measures the *modelled*
systems; ``simperf`` measures the *simulator itself* — how many scheduler
events, network messages, and end-to-end invocations one wall-clock
second buys.  The rows are fixed-seed and fixed-size, so each row's
``wall_s`` in the JSON artifact (``BENCH_simperf.json``) is comparable
across commits and the CI guard can flag slowdowns.  ``events`` and
``events_per_sec`` are kept as information only: the event count is a
property of the scheduler, not of the work, so a change that wakes the
same processes through fewer scheduler entries finishes a row sooner
while its events/s *falls* (DESIGN.md §5m halved the ``timers`` row's
events and cut its wall time by a third).

The rows, from micro to macro:

- ``event_lane`` — processes ping-ponging through :class:`Store` mailboxes
  at one simulated instant: the zero-delay scheduling path (event trigger,
  callback dispatch, process resume) with no heap traffic.
- ``timers`` — concurrent ``timeout`` chains: the time-ordered heap path.
- ``network`` — host pairs streaming messages: ``Network.send`` plus
  delivery scheduling and mailbox handoff.
- ``deadline_waits`` — processes parked on an event that always beats its
  1,000 ms deadline (``Simulation.wait``, the RPC reply wait): the
  cancelled-timeout path.  Its ``peak_pending`` is the point of the row —
  the deadlines must not stay in the heap until they would have fired
  (one per wait ever made), DESIGN.md §5p.
- ``retwis_invoke`` — one quick aggregated run of the mutation-heavy
  REPLICATION_MIX end to end: the whole stack (cluster, locks, cache,
  group-commit replication) as the workloads exercise it.  Its
  invocations/sec is the headline number.
- ``retwis_invoke_nogc`` — the same run with group commit off (the
  pipeline at one round per frame, so one frame per mutating invocation):
  the reference that shows what coalescing saves in messages per
  invocation.
- ``retwis_invoke_coalesced`` — the headline run with transport egress
  coalescing + deferred-ack piggybacking on (DESIGN.md §5j): the A/B
  row that tracks what the wire-message diet buys (and costs) across
  commits.
- ``retwis_invoke_traced`` / ``retwis_invoke_sampled`` — the headline run
  with the span tracer on at sample rate 1.0 vs 0.1: the observability
  A/B pair that tracks the tracing-overhead gap (and what head sampling
  buys back) across commits.

``peak_pending`` is the most entries the scheduler held at the points a
row samples ``Simulation.pending`` — before and after its run, and in
``deadline_waits`` after every wait of one waiter — from outside, so it
costs the timed run nothing; it is not a high-water mark of every instant.

Wall-clock numbers are machine-dependent; the guard therefore compares
each row's ``wall_s`` (and the headline's invocations/sec) against a
committed same-machine baseline with a generous (30%) margin — per row,
so a regression in one path cannot hide behind a win in another — and
can be skipped via ``SIMPERF_GUARD_SKIP=1`` on incomparable hardware.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from typing import Callable, Optional

from repro.bench.calibration import Calibration, preset
from repro.bench.report import format_comparison
from repro.sim import Network, Simulation
from repro.sim.resources import Store
from repro.workload.retwis_load import RetwisWorkload

#: default artifact path (repo-root relative; CI uploads it)
DEFAULT_OUT = "BENCH_simperf.json"

#: share of its baseline by which a row's wall time may rise, or the
#: headline's invocations/sec fall, before the guard fails
GUARD_TOLERANCE = 0.30

#: environment variable that disables the guard (incomparable hardware)
GUARD_SKIP_ENV = "SIMPERF_GUARD_SKIP"


# ---------------------------------------------------------------------------
# micro rows
# ---------------------------------------------------------------------------


def _bench_event_lane(iterations: int) -> dict:
    """Ping-pong items through Store mailboxes at one simulated instant."""
    sim = Simulation(seed=7)
    left: Store = Store(sim)
    right: Store = Store(sim)

    def pinger():
        for _ in range(iterations):
            left.put("ping")
            yield right.get()

    def ponger():
        for _ in range(iterations):
            yield left.get()
            right.put("pong")

    sim.process(pinger())
    done = sim.process(ponger())
    peak = sim.pending
    started = time.perf_counter()
    sim.run_until_triggered(done, limit=1.0)
    wall = time.perf_counter() - started
    return _row("event_lane", sim, wall, peak)


def _bench_timers(chains: int, steps: int) -> dict:
    """Many interleaved timeout chains: exercises the time-ordered heap."""
    sim = Simulation(seed=7)

    def chain(offset: float):
        for _ in range(steps):
            yield sim.timeout(0.5 + offset)

    processes = [sim.process(chain(i * 1e-4)) for i in range(chains)]
    gate = sim.all_of(processes)
    peak = sim.pending
    started = time.perf_counter()
    sim.run_until_triggered(gate, limit=float("inf"))
    wall = time.perf_counter() - started
    return _row("timers", sim, wall, peak)


def _bench_deadline_waits(waiters: int, rounds: int) -> dict:
    """Waits on an event that wins against a 1,000 ms deadline, the shape
    of every RPC reply wait: ``waiters * rounds`` deadlines are set and
    none is reached, in 0.5 ms rounds that end long before the first
    would have fired."""
    sim = Simulation(seed=7)
    peak = 0

    def waiter(index: int):
        nonlocal peak
        for _ in range(rounds):
            reply = sim.event()
            sim.timeout(0.5 + index * 1e-4).add_callback(
                lambda _timer, reply=reply: reply.succeed()
            )
            yield from sim.wait(reply, 1_000.0)
            if index == 0:
                peak = max(peak, sim.pending)

    gate = sim.all_of([sim.process(waiter(index)) for index in range(waiters)])
    started = time.perf_counter()
    sim.run_until_triggered(gate, limit=float("inf"))
    wall = time.perf_counter() - started
    return _row("deadline_waits", sim, wall, peak)


def _bench_network(pairs: int, messages: int) -> dict:
    """Host pairs streaming messages through the network layer."""
    sim = Simulation(seed=7)
    net = Network(sim)
    for index in range(pairs):
        net.add_host(f"tx-{index}")
        net.add_host(f"rx-{index}")

    def receiver(name: str):
        host = net.host(name)
        for _ in range(messages):
            yield host.recv()

    def sender(index: int):
        for _ in range(messages):
            net.send(f"tx-{index}", f"rx-{index}", "payload", size_bytes=128)
            yield sim.timeout(0.01)

    receivers = [sim.process(receiver(f"rx-{i}")) for i in range(pairs)]
    for index in range(pairs):
        sim.process(sender(index))
    gate = sim.all_of(receivers)
    peak = sim.pending
    started = time.perf_counter()
    sim.run_until_triggered(gate, limit=float("inf"))
    wall = time.perf_counter() - started
    row = _row("network", sim, wall, peak)
    sent = net.stats.messages_sent
    row["messages"] = sent
    row["messages_per_sec"] = round(sent / wall, 1) if wall > 0 else 0.0
    return row


def _bench_retwis(
    cal: Calibration,
    bench: str = "retwis_invoke",
    trace_sample_rate: Optional[float] = None,
    **config_overrides,
) -> dict:
    """One aggregated REPLICATION_MIX run end to end — the headline row.

    ``config_overrides`` are cluster-config overrides: the ``_nogc`` row
    passes ``group_commit_max_rounds=1`` so the artifact carries one row
    with and one without coalescing, and the messages per invocation
    delta is visible in every snapshot.  ``trace_sample_rate`` turns the
    span tracer on (the observability A/B rows); the untraced rows leave
    it off, as the figures do.
    """
    from repro.bench.harness import run_replication_mix

    started = time.perf_counter()
    result, platform, sim = run_replication_mix(
        cal, trace_sample_rate=trace_sample_rate, **config_overrides
    )
    wall = time.perf_counter() - started
    completed = sum(r.completed for r in result.reports.values())
    row = _row(bench, sim, wall, 0)
    row["invocations"] = completed
    row["invocations_per_sec"] = round(completed / wall, 1) if wall > 0 else 0.0
    sent = platform.net.stats.messages_sent
    row["messages"] = sent
    row["messages_per_sec"] = round(sent / wall, 1) if wall > 0 else 0.0
    row["messages_per_invocation"] = round(sent / completed, 3) if completed else 0.0
    if trace_sample_rate is not None:
        row["trace_sample_rate"] = trace_sample_rate
        row["spans_recorded"] = len(platform.tracer.spans)
    return row


def _row(bench: str, sim: Simulation, wall_s: float, peak_pending: int) -> dict:
    """One artifact row; ``peak_pending`` is what the row sampled while it
    ran, to which the scheduler's size now that it has ended is added."""
    events = sim.events_scheduled
    return {
        "bench": bench,
        "events": events,
        "peak_pending": max(peak_pending, sim.pending),
        "wall_s": round(wall_s, 4),
        "events_per_sec": round(events / wall_s, 1) if wall_s > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# the experiment
# ---------------------------------------------------------------------------

#: micro-row sizes per preset (fixed, so artifacts are comparable)
_SIZES = {
    "quick": {
        "ping_iters": 30_000,
        "chains": 200,
        "steps": 150,
        "pairs": 8,
        "messages": 2_500,
        "waiters": 200,
        "rounds": 50,
    },
    "full": {
        "ping_iters": 150_000,
        "chains": 500,
        "steps": 400,
        "pairs": 16,
        "messages": 10_000,
        "waiters": 500,
        "rounds": 100,
    },
}


def _sizes_for(cal: Calibration) -> dict:
    # The quick preset trims duration_ms; treat anything at or below the
    # quick scale as "quick" so micro rows stay fast under pytest.
    return _SIZES["quick"] if cal.duration_ms <= preset("quick").duration_ms else _SIZES["full"]


def _profile_row(name: str, thunk: Callable[[], dict]) -> tuple[dict, str]:
    """Run one row under cProfile; return (row, top-25 cumulative text)."""
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    row = profiler.runcall(thunk)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(25)
    return row, f"=== {name} (top 25 by cumulative time) ===\n{buffer.getvalue()}"


def profile_report_path(out_path: str) -> str:
    """Where ``--profile`` writes its report, next to the JSON artifact."""
    root, _ = os.path.splitext(out_path)
    return f"{root}_profile.txt"


def simperf(cal=None, out_path: Optional[str] = DEFAULT_OUT, profile: bool = False) -> dict:
    """Run the simulator microbenchmark; write ``BENCH_simperf.json``.

    Returns the usual experiment dict (``rows`` + ``text``) plus a
    ``headline`` dict with the retwis row's throughput numbers.  With
    ``profile`` set, every row runs under :mod:`cProfile` and a top-25
    cumulative report lands next to the JSON artifact (wall clocks are
    then profiler-inflated: useful for *where*, not *how fast*).
    """
    if cal is None:
        cal = preset("quick")
    elif isinstance(cal, str):
        cal = preset(cal)
    sizes = _sizes_for(cal)
    # The retwis rows stay quick-sized even under --preset full: simperf
    # tracks simulator speed, which does not need the paper-scale dataset.
    # The _nogc row is the one-round-per-frame reference, and the
    # traced/sampled pair is the headline run with the span tracer on at
    # rate 1.0 vs 0.1.
    retwis_cal = replace(preset("quick"), seed=cal.seed)

    specs: list[tuple[str, Callable[[], dict]]] = [
        ("event_lane", lambda: _bench_event_lane(sizes["ping_iters"])),
        ("timers", lambda: _bench_timers(sizes["chains"], sizes["steps"])),
        ("deadline_waits", lambda: _bench_deadline_waits(sizes["waiters"], sizes["rounds"])),
        ("network", lambda: _bench_network(sizes["pairs"], sizes["messages"])),
        ("retwis_invoke", lambda: _bench_retwis(retwis_cal)),
        (
            "retwis_invoke_nogc",
            lambda: _bench_retwis(
                retwis_cal, bench="retwis_invoke_nogc", group_commit_max_rounds=1
            ),
        ),
        (
            "retwis_invoke_coalesced",
            lambda: _bench_retwis(
                replace(retwis_cal, transport_coalescing=True),
                bench="retwis_invoke_coalesced",
            ),
        ),
        (
            "retwis_invoke_traced",
            lambda: _bench_retwis(
                retwis_cal, bench="retwis_invoke_traced", trace_sample_rate=1.0
            ),
        ),
        (
            "retwis_invoke_sampled",
            lambda: _bench_retwis(
                retwis_cal, bench="retwis_invoke_sampled", trace_sample_rate=0.1
            ),
        ),
    ]
    rows = []
    profile_sections = []
    for name, thunk in specs:
        if profile:
            row, section = _profile_row(name, thunk)
            profile_sections.append(section)
        else:
            row = thunk()
        rows.append(row)
    by_bench = {row["bench"]: row for row in rows}
    headline_row = by_bench["retwis_invoke"]
    reference_row = by_bench["retwis_invoke_nogc"]
    coalesced_row = by_bench["retwis_invoke_coalesced"]
    traced_row = by_bench["retwis_invoke_traced"]
    sampled_row = by_bench["retwis_invoke_sampled"]
    headline = {
        "events_per_sec": headline_row["events_per_sec"],
        "invocations_per_sec": headline_row["invocations_per_sec"],
        "messages_per_sec": headline_row["messages_per_sec"],
        "messages_per_invocation": headline_row["messages_per_invocation"],
    }
    payload = {
        "schema": 6,
        "seed": cal.seed,
        "sizes": sizes,
        "rows": rows,
        "headline": headline,
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    text = format_comparison("Simperf: simulator throughput (fixed-seed)", rows)
    text += (
        f"\n  headline (retwis_invoke): {headline['invocations_per_sec']:,.0f} "
        f"invocations/s, {headline['messages_per_sec']:,.0f} messages/s "
        f"({headline['events_per_sec']:,.0f} scheduler entries/s, information only)"
    )
    saved = 1.0 - (
        headline_row["messages_per_invocation"]
        / reference_row["messages_per_invocation"]
    )
    text += (
        f"\n  group commit: {headline_row['messages_per_invocation']:.2f} "
        f"messages/invocation vs {reference_row['messages_per_invocation']:.2f} "
        f"at one round per frame ({saved:.1%} fewer)"
    )
    coalesce_saved = 1.0 - (
        coalesced_row["messages_per_invocation"]
        / headline_row["messages_per_invocation"]
    )
    text += (
        f"\n  coalescing: {coalesced_row['messages_per_invocation']:.2f} "
        f"messages/invocation vs {headline_row['messages_per_invocation']:.2f} "
        f"without ({coalesce_saved:.1%} fewer; "
        f"{coalesced_row['invocations_per_sec']:,.0f} invocations/s)"
    )
    traced_ips = traced_row["invocations_per_sec"]
    sampled_ips = sampled_row["invocations_per_sec"]
    recovered = (sampled_ips / traced_ips - 1.0) if traced_ips else 0.0
    text += (
        f"\n  tracing A/B: {traced_ips:,.0f} invocations/s at sample rate 1.0 vs "
        f"{sampled_ips:,.0f} at 0.1 ({recovered:+.1%}; "
        f"{traced_row['spans_recorded']:,} vs "
        f"{sampled_row['spans_recorded']:,} spans recorded)"
    )
    if out_path:
        text += f"\n  artifact written to {out_path}"
        if profile:
            report_path = profile_report_path(out_path)
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(profile_sections))
            text += f"\n  cProfile report written to {report_path}"
    return {"name": "simperf", "rows": rows, "headline": headline, "text": text}


# ---------------------------------------------------------------------------
# regression guard
# ---------------------------------------------------------------------------


def check_guard(result: dict, baseline_path: str) -> tuple[bool, str]:
    """Compare a simperf result against a committed baseline.

    Returns ``(ok, message)``.  The rows are fixed-size, so the guarded
    quantity is wall time: every row present in both the result and the
    baseline must keep ``wall_s`` at or below ``(1 + GUARD_TOLERANCE)``
    of its baseline — per row, so a regression in one scheduler path
    (e.g. the timer heap) cannot hide behind a win in another — and the
    headline must hold ``invocations_per_sec`` at or above ``(1 -
    GUARD_TOLERANCE)`` of its baseline.  ``events_per_sec`` is not
    compared: it falls when a change removes scheduler entries, however
    much faster the row got.  Rows only on one side (schema growth) are
    ignored.  Skipped (ok) when ``SIMPERF_GUARD_SKIP`` is set or the
    baseline file is missing (first run on a new machine).
    """
    if os.environ.get(GUARD_SKIP_ENV):
        return True, f"simperf guard skipped ({GUARD_SKIP_ENV} set)"
    try:
        with open(baseline_path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        return True, f"simperf guard skipped (no baseline at {baseline_path})"
    baseline_rows = {
        row["bench"]: row for row in baseline.get("rows", []) if "bench" in row
    }
    failures = []
    checked = 0
    for row in result.get("rows", []):
        reference_row = baseline_rows.get(row.get("bench"))
        if reference_row is None:
            continue
        reference = float(reference_row["wall_s"])
        measured = float(row["wall_s"])
        ceiling = reference * (1.0 + GUARD_TOLERANCE)
        checked += 1
        if measured > ceiling:
            failures.append(
                f"{row['bench']}: {measured:.4f} s is above "
                f"{ceiling:.4f} s (baseline {reference:.4f} s)"
            )
    reference = float(baseline["headline"]["invocations_per_sec"])
    measured = float(result["headline"]["invocations_per_sec"])
    floor = reference * (1.0 - GUARD_TOLERANCE)
    if measured < floor:
        failures.append(
            f"headline: {measured:,.0f} invocations/s is below "
            f"{floor:,.0f} (baseline {reference:,.0f})"
        )
    if failures:
        detail = "; ".join(failures)
        return False, (
            f"simperf guard FAILED (tolerance {GUARD_TOLERANCE:.0%}): {detail}"
        )
    return True, (
        f"simperf guard ok: wall time of {checked} rows within "
        f"{GUARD_TOLERANCE:.0%} of baseline; headline {measured:,.0f} "
        f"invocations/s vs {reference:,.0f} (floor {floor:,.0f})"
    )
