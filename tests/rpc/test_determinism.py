"""Fixed-seed determinism guard for the RPC-layer migration.

Pins one fig1 cell ("Post", both variants) to byte-identical values —
report rows *and* total scheduled-event counts — captured immediately
before the hand-rolled mailboxes moved onto ``repro.rpc``.  Any change
to scheduling order, rng draw order, or message counts moves at least
one of these numbers.

If a later change *legitimately* alters scheduling (a new protocol
message, a reordered process), re-capture these constants in that PR and
say so in its description; an unexplained diff here is a determinism
regression.

``events_scheduled`` counts scheduler entries, and since the scheduler's
unit became the wake-up (DESIGN.md §5m) an entry exists only where
somebody is woken: a trigger with no listener takes none and a timeout
runs its listeners from its own heap entry.  That change re-captured
*only* this field (72,917 -> 54,392 aggregated, 32,131 -> 16,417
disaggregated); the other six fields of both cells are the constants
committed before it, which is the evidence that no remaining entry
changed places.
"""

from dataclasses import replace

from repro.bench.calibration import preset
from repro.bench.harness import AGGREGATED, DISAGGREGATED, run_retwis

#: quick preset, shrunk so both runs stay a few seconds of wall clock
CAL = replace(preset("quick"), duration_ms=400.0, warmup_ms=50.0, num_clients=8)

#: aggregated last re-captured when a replication round became one
#: encoded payload (each repeated value and key prefix shipped once):
#: smaller frames serialise faster, so deliveries and interleavings
#: legitimately move.  disaggregated sends no replication frames and is
#: kept from the repro.rpc migration capture.
GOLDEN = {
    AGGREGATED: {
        "completed": 893,
        "events_scheduled": 54216,
        "median_ms": 3.152573,
        "messages_delivered": 6356,
        "messages_sent": 6359,
        "p99_ms": 5.040534,
        "throughput": 2551.428571,
    },
    DISAGGREGATED: {
        "completed": 88,
        "events_scheduled": 16417,
        "median_ms": 34.332138,
        "messages_delivered": 194,
        "messages_sent": 194,
        "p99_ms": 54.389314,
        "throughput": 251.428571,
    },
}


def _run_cell(variant: str) -> dict:
    result = run_retwis(variant, "Post", CAL)
    report = result.report
    sim = result.sim
    net = result.platform.net
    return {
        "completed": report.completed,
        "events_scheduled": sim.events_scheduled,
        "median_ms": round(report.median_ms, 6),
        "messages_delivered": net.stats.messages_delivered,
        "messages_sent": net.stats.messages_sent,
        "p99_ms": round(report.p99_ms, 6),
        "throughput": round(report.throughput_per_sec, 6),
    }


def test_fig1_post_cell_aggregated_is_byte_identical():
    assert _run_cell(AGGREGATED) == GOLDEN[AGGREGATED]


def test_fig1_post_cell_disaggregated_is_byte_identical():
    assert _run_cell(DISAGGREGATED) == GOLDEN[DISAGGREGATED]


def test_same_seed_runs_twice_identically():
    """The weaker invariant that must hold even across legitimate
    re-captures: two runs of the same cell in one process agree."""
    assert _run_cell(AGGREGATED) == _run_cell(AGGREGATED)
