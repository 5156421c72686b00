"""Head sampling must be free of simulation side effects.

The ISSUE-8 acceptance criteria, executable:

- a workload run with ``trace_sample_rate=0.1`` produces byte-identical
  workload rows and event counts vs ``1.0`` (and vs tracing off) — the
  sampling decision is a pure function of the trace id and never touches
  the event queue or any rng stream;
- error-path requests are always traced (escalated) even when head
  sampling would have dropped them.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps.bank import account_type
from repro.bench.calibration import preset
from repro.bench.harness import (
    AGGREGATED,
    REPLICATION_MIX,
    REPLICATION_MIX_NODES,
    run_retwis,
)
from repro.cluster import Cluster, ClusterConfig
from repro.sim import Simulation

#: trimmed mix calibration: enough traffic to exercise replication,
#: caching, and the scheduler, small enough for the unit suite
_TINY = replace(
    preset("quick"),
    duration_ms=300.0,
    warmup_ms=50.0,
    num_clients=4,
    num_accounts=60,
    avg_follows=3,
    seed_posts_per_account=2,
    num_storage_nodes=REPLICATION_MIX_NODES,
)


def _run(trace_sample_rate):
    return run_retwis(
        AGGREGATED, REPLICATION_MIX, _TINY, trace_sample_rate=trace_sample_rate
    )


def _fingerprint(trace_sample_rate):
    run = _run(trace_sample_rate)
    result = run.driver
    rows = {
        method: (
            report.completed,
            report.throughput_per_sec,
            report.median_ms,
            report.p99_ms,
        )
        for method, report in result.reports.items()
    }
    return {
        "rows": rows,
        "total_completed": result.total_completed,
        "failures": result.failures,
        "events": run.sim.events_scheduled,
        "final_now": run.sim.now,
        "messages": run.platform.net.stats.messages_sent,
    }


def test_sample_rate_does_not_perturb_the_simulation():
    untraced = _fingerprint(None)
    full = _fingerprint(1.0)
    sampled = _fingerprint(0.1)
    assert untraced == full == sampled


def test_sampling_records_fewer_spans_than_full_tracing():
    full_spans = len(_run(1.0).platform.tracer.spans)
    sampled_spans = len(_run(0.1).platform.tracer.spans)
    assert full_spans > 0
    assert 0 < sampled_spans < full_spans / 2


def test_error_requests_are_always_traced_despite_sampling():
    sim = Simulation(seed=7)
    cluster = Cluster(sim, ClusterConfig(num_storage_nodes=3, num_shards=1, seed=7))
    cluster.register_type(account_type())
    tracer = cluster.enable_tracing(sample_rate=0.0)
    account = cluster.create_object("Account", initial={"balance": 100})
    client = cluster.client("acct")

    # A healthy request at rate 0.0 leaves no spans behind...
    assert cluster.run_invoke(client, account, "deposit", 10) == 110
    assert len(tracer) == 0

    # ...but a guest error escalates its request to always-traced.
    with pytest.raises(Exception):
        cluster.run_invoke(client, account, "deposit", -5)
    markers = [s for s in tracer.spans if s.name == "escalated"]
    assert markers, "error request must be force-traced under head sampling"
    assert markers[0].attrs.get("reason") == "invoke.error"
    assert tracer.trace(markers[0].trace_id)
