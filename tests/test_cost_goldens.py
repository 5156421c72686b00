"""Cost goldens: what a fixed-seed run costs, counted exactly.

The paper argues in units of work per job — the round trips, messages
and commits each invocation costs — and so does this guard.  Each cell
is one fixed-seed Retwis run whose counters are pinned to the integer
(fuel is an exact binary fraction): scheduler entries, wire messages,
frames and bytes, RPC calls, runtime invocations/commits/fuel, kvstore
operations and replication rounds/frames/acks.  None of them depends on
the host, so a change that moves one fails here at once and names it;
a perf change states which counters it moves and re-captures them on
purpose.  Host speed itself is the benchmark ledger's business
(``benchmarks/ledger``, compared in pairs by ``tools/bench_pairs.py``).

Every run also checks the noise-free leak guards of DESIGN.md §5p: with
the collector off, whatever the run leaves unreachable is what reference
counting could not free (at the commit before §5p some 60 to 90 objects
per job), and after the last reply only periodic timers may stay live
in the scheduler (it then held one 1,000 ms reply timer per call made).

The traced pair is the uncached cell with the span tracer on at sample
rate 1.0 and 0.1: tracing must move no counter of the run it observes,
and the spans it records are pinned too.

``PYTHONPATH=src python tests/test_cost_goldens.py`` prints the counters
of the checkout it runs against, in the shape of :data:`GOLDENS`.
"""

import gc

import pytest

from repro.bench.calibration import preset
from repro.bench.harness import (
    AGGREGATED,
    DISAGGREGATED,
    REPLICATION_MIX,
    REPLICATION_MIX_NODES,
    RunResult,
    run_retwis,
)
from repro.sim.core import CANCELLED_TIMEOUTS_FLOOR

#: a few hundred jobs of the replication mix: enough that a per-job leak
#: is in the thousands
CAL = preset(
    "quick",
    num_accounts=200,
    num_clients=10,
    duration_ms=150.0,
    warmup_ms=30.0,
    num_storage_nodes=REPLICATION_MIX_NODES,
)

#: unreachable objects tolerated after a run — a constant, not a rate
GARBAGE_CEILING = 50

#: wire counters read from ``platform.net.stats``
NET_COUNTERS = ("messages_sent", "frames_sent", "bytes_sent")

#: metric families read from ``platform.metrics``, summed over labels; a
#: family the platform does not register is left out of its golden
FAMILIES = (
    "rpc_calls",
    "rpc_messages_out",
    "runtime_invocations",
    "runtime_commits",
    "runtime_fuel_used",
    "kvstore_puts",
    "kvstore_gets",
    "kvstore_applies",
    "node_replication_rounds",
    "replication_flush_total",
    "replication_acked",
)

UNCACHED = {"enable_cache": False}

#: cell -> (variant, run_retwis overrides)
CELLS = {
    "aggregated-uncached": (AGGREGATED, UNCACHED),
    "aggregated-cached": (AGGREGATED, {"enable_cache": True}),
    "serverless": (DISAGGREGATED, {}),
    "aggregated-traced": (AGGREGATED, {**UNCACHED, "trace_sample_rate": 1.0}),
    "aggregated-sampled": (AGGREGATED, {**UNCACHED, "trace_sample_rate": 0.1}),
}

_AGGREGATED_UNCACHED = {
    "jobs": 719,
    "events_scheduled": 29832,
    "messages_sent": 6092,
    "frames_sent": 6092,
    "bytes_sent": 1963121,
    "rpc_calls": 885,
    "rpc_messages_out": 5207,
    "runtime_invocations": 4339,
    "runtime_commits": 4053,
    "runtime_fuel_used": 406662.3125,
    "kvstore_puts": 83930,
    "kvstore_gets": 11433,
    "kvstore_applies": 21265,
    "node_replication_rounds": 599,
    "replication_flush_total": 510,
    "replication_acked": 2396,
}

GOLDENS = {
    "aggregated-uncached": _AGGREGATED_UNCACHED,
    "aggregated-cached": {
        "jobs": 718,
        "events_scheduled": 29825,
        "messages_sent": 6139,
        "frames_sent": 6139,
        "bytes_sent": 1957682,
        "rpc_calls": 884,
        "rpc_messages_out": 5255,
        "runtime_invocations": 4318,
        "runtime_commits": 4029,
        "runtime_fuel_used": 403931.28125,
        "kvstore_puts": 83690,
        "kvstore_gets": 11473,
        "kvstore_applies": 21145,
        "node_replication_rounds": 595,
        "replication_flush_total": 515,
        "replication_acked": 2380,
    },
    "serverless": {
        "jobs": 105,
        "events_scheduled": 9299,
        "messages_sent": 244,
        "frames_sent": 244,
        "bytes_sent": 39235,
        "rpc_calls": 122,
        "rpc_messages_out": 122,
        "runtime_invocations": 597,
        "runtime_commits": 561,
        "runtime_fuel_used": 55879.453125,
        "kvstore_puts": 49010,
        "kvstore_gets": 1517,
        "kvstore_applies": 3805,
        "replication_acked": 0,
    },
    "aggregated-traced": {**_AGGREGATED_UNCACHED, "spans_recorded": 11360},
    "aggregated-sampled": {**_AGGREGATED_UNCACHED, "spans_recorded": 1085},
}


def run_cell(cell: str) -> RunResult:
    variant, overrides = CELLS[cell]
    return run_retwis(variant, REPLICATION_MIX, CAL, **overrides)


def costs(run: RunResult) -> dict:
    """The pinned counters of one finished run."""
    platform = run.platform
    measured = {
        "jobs": run.driver.total_completed,
        "events_scheduled": run.sim.events_scheduled,
    }
    for field in NET_COUNTERS:
        measured[field] = getattr(platform.net.stats, field)
    families = platform.metrics.families()
    for name in FAMILIES:
        if name in families:
            value = sum(instrument.value for instrument in families[name])
            measured[name] = int(value) if float(value).is_integer() else value
    if platform.tracer is not None:
        measured["spans_recorded"] = len(platform.tracer.spans)
    return measured


@pytest.mark.parametrize("cell", list(CELLS))
def test_a_run_matches_its_cost_golden_and_leaks_nothing(cell):
    gc.collect()
    gc.disable()
    try:
        run = run_cell(cell)
        # The run keeps its platform, sim and result referenced: only
        # what the run itself dropped can be unreachable.
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable <= GARBAGE_CEILING

    heap = len(run.sim._queue)
    live = heap - run.sim._cancelled
    assert heap <= CANCELLED_TIMEOUTS_FLOOR + 2 * live
    # After the last reply only periodic timers (heartbeats, flushes) are
    # live; a deadline left to run out uncancelled would count here, one
    # per call made.
    assert live <= 2 * CAL.num_clients

    golden = GOLDENS[cell]
    measured = costs(run)
    moved = {
        name: f"{golden.get(name)} -> {measured.get(name)}"
        for name in sorted(golden.keys() | measured.keys())
        if golden.get(name) != measured.get(name)
    }
    assert not moved, f"{cell}: counters moved (golden -> measured): {moved}"


if __name__ == "__main__":
    for cell in CELLS:
        print(f'"{cell}": {costs(run_cell(cell))},')
