"""End-to-end nemesis scenarios: inject faults, then check consistency.

Each scenario runs the shared register workload under a different fault
mix, calms the nemesis, quiesces the cluster, and requires the full
consistency report (linearizability, replica convergence, cache
coherence, bookkeeping) to come back clean.
"""

import pytest

from repro.chaos import NemesisConfig, run_scenario

from tests.consistency.conftest import use_bimodal_latency


def assert_consistent(result):
    assert result.quiesced, "cluster failed to quiesce after calming the nemesis"
    report = result.check()
    assert report.ok, report.summary()
    return report


@pytest.mark.parametrize("seed", [3, 7, 21])
def test_message_drop_storms(seed):
    """Repeated drop storms force retransmissions and out-of-order applies."""
    result = run_scenario(
        seed=seed,
        nemesis_config=NemesisConfig(
            events=("drop_storm",),
            mean_interval_ms=15.0,
            drop_probability_range=(0.1, 0.35),
        ),
        num_objects=3,
        duration_ms=400.0,
        post_build=use_bimodal_latency,
    )
    report = assert_consistent(result)
    assert report.checked_operations > 50
    assert any("drop storm" in event for _t, event in result.nemesis.events_log)


@pytest.mark.parametrize("seed", [5, 11])
def test_partitions_and_heals(seed):
    """Transient single-node partitions, plus storms, then heal."""
    result = run_scenario(
        seed=seed,
        nemesis_config=NemesisConfig(
            events=("partition", "drop_storm", "crash_recover"),
            mean_interval_ms=20.0,
        ),
        num_objects=2,
        duration_ms=400.0,
    )
    report = assert_consistent(result)
    assert report.checked_operations > 50
    assert any("partition" in event for _t, event in result.nemesis.events_log)


@pytest.mark.parametrize("seed", [5, 9])
def test_crash_and_failover_during_migration(seed):
    """Crashes and a permanent primary failover while objects migrate
    between shards — the full reconfiguration gauntlet."""
    result = run_scenario(
        seed=seed,
        nemesis_config=NemesisConfig(
            events=("migrate", "crash_recover", "failover", "drop_storm"),
            max_failovers=1,
            mean_interval_ms=25.0,
        ),
        num_storage_nodes=4,
        num_shards=2,
        num_objects=2,
        duration_ms=600.0,
    )
    report = assert_consistent(result)
    events = [event for _t, event in result.nemesis.events_log]
    assert any("failover" in event for event in events)
    assert any("migrate" in event for event in events)


def test_nemesis_schedule_is_deterministic():
    """Same seed, same fault script, same history — the whole point of
    driving the nemesis from the sim's named RNG streams."""
    def go():
        result = run_scenario(
            seed=13,
            nemesis_config=NemesisConfig(events=("drop_storm", "crash_recover")),
            duration_ms=200.0,
        )
        history = [
            (r.client, r.object_id, r.method, r.args, r.invoke_at, r.return_at)
            for r in result.recorder.invocations()
        ]
        return result.nemesis.events_log, history

    assert go() == go()


@pytest.mark.parametrize("seed", [2, 5, 8])
def test_group_commit_survives_drop_storms_and_reordering(seed):
    """Soak for the pipelined group-commit path: drop storms force frame
    loss and targeted retransmission, and bimodal per-message latency
    reorders frames and cumulative acks on the wire.  The full report
    (linearizability, convergence, cache coherence, bookkeeping — which
    includes pipeline idleness) must come back clean."""
    result = run_scenario(
        seed=seed,
        nemesis_config=NemesisConfig(
            events=("drop_storm",),
            mean_interval_ms=15.0,
            drop_probability_range=(0.15, 0.4),
        ),
        num_objects=4,
        num_clients=4,
        ops_per_client=40,
        duration_ms=400.0,
        post_build=use_bimodal_latency,
    )
    report = assert_consistent(result)
    assert report.checked_operations > 50
    # The pipelined path (ClusterConfig default) actually ran.
    pipelines = [
        p for node in result.cluster.nodes.values() for p in node.pipelines.values()
    ]
    assert pipelines
    assert all(p.idle for p in pipelines)


@pytest.mark.parametrize("seed", [3, 7, 19])
def test_coalescing_survives_drop_storms_and_reordering(seed):
    """Soak for transport coalescing + deferred acks (§5j): drop storms
    must drop coalesced wire messages atomically (a half-delivered batch
    would corrupt frame ordering), bimodal latency reorders wire
    messages, and deferred cumulative acks must keep settlement moving —
    the full consistency report comes back clean and every deferred
    watermark has left its node by quiesce time."""
    result = run_scenario(
        seed=seed,
        nemesis_config=NemesisConfig(
            events=("drop_storm",),
            mean_interval_ms=15.0,
            drop_probability_range=(0.15, 0.4),
        ),
        num_objects=4,
        num_clients=4,
        ops_per_client=40,
        duration_ms=400.0,
        post_build=use_bimodal_latency,
        transport_coalescing=True,
    )
    report = assert_consistent(result)
    assert report.checked_operations > 50
    nodes = result.cluster.nodes.values()
    # The deferred-ack path actually ran, and nothing is still parked.
    assert sum(node.stats.acks_deferred for node in nodes) > 0
    assert all(not node.acks.pending for node in nodes)
    pipelines = [p for node in nodes for p in node.pipelines.values()]
    assert pipelines
    assert all(p.idle for p in pipelines)


@pytest.mark.parametrize("seed", [5, 11])
def test_coalescing_survives_crashes_and_partitions(seed):
    """Crash/recover and partitions with coalescing on: deferred acks
    die with a crashed backup and the primary's watchdog must recover
    the watermark without the consistency report noticing."""
    result = run_scenario(
        seed=seed,
        nemesis_config=NemesisConfig(
            events=("partition", "drop_storm", "crash_recover"),
            mean_interval_ms=20.0,
        ),
        num_objects=2,
        duration_ms=400.0,
        transport_coalescing=True,
    )
    report = assert_consistent(result)
    assert report.checked_operations > 50


def test_checker_flags_stale_cache_when_fix_reverted():
    """The acceptance gate for the stale-cache fix: with the historical
    drain-invalidation bug reinstated (the ``seeded_bugs`` flag), the same
    scenario that passes on the fixed code must produce a cache-coherence
    violation."""

    def run(seeded_bugs):
        return run_scenario(
            seed=27,
            nemesis_config=NemesisConfig(
                events=("drop_storm",),
                mean_interval_ms=12.0,
                drop_probability_range=(0.15, 0.4),
            ),
            num_objects=6,
            num_clients=4,
            ops_per_client=40,
            duration_ms=250.0,
            post_build=use_bimodal_latency,
            seeded_bugs=seeded_bugs,
        )

    # seed 27 is a known-reordering run: a frame buffered out of order
    # drains behind a cached read and (on the buggy code) never
    # invalidates it.  Seeds 1-50 were searched; 27, 36 and 44 manifest.
    fixed_report = run(()).check()
    assert fixed_report.ok, fixed_report.summary()

    buggy_report = run(("drain-invalidation",)).check()
    assert not buggy_report.ok
    assert any(v.kind == "stale-cache" for v in buggy_report.violations), (
        buggy_report.summary()
    )


@pytest.mark.parametrize("seed", [9, 13])
def test_drop_storms_with_admission_control(seed):
    """Admission control in the request path must not cost correctness:
    sheds, server-advised retries, and token refills interleave with drop
    storms, and the history still linearizes."""
    result = run_scenario(
        seed=seed,
        nemesis_config=NemesisConfig(
            events=("drop_storm",),
            mean_interval_ms=15.0,
            drop_probability_range=(0.1, 0.35),
        ),
        num_objects=3,
        duration_ms=400.0,
        admission_control=True,
        tenant_rate_limit=40.0,
        max_inflight_requests=8,
    )
    report = assert_consistent(result)
    assert report.checked_operations > 30
    # Admission was actually in the loop, not idling: at least one
    # request was shed and retried into this clean history.
    shed = sum(node.stats.shed_requests for node in result.cluster.nodes.values())
    assert shed > 0


@pytest.mark.parametrize("seed", [3, 7])
def test_drop_storms_with_sampled_tracing(seed):
    """The chaos suite stays green with head sampling at 0.1.

    The consistency checkers read the invocation *history*, never spans,
    so sampling must not change any verdict — and the drop storms force
    retries/timeouts, whose traces must be escalated to always-recorded
    despite the low rate.
    """

    def enable_sampled_tracing(cluster):
        use_bimodal_latency(cluster)
        cluster.enable_tracing(sample_rate=0.1)

    def run(post_build):
        return run_scenario(
            seed=seed,
            nemesis_config=NemesisConfig(
                events=("drop_storm",),
                mean_interval_ms=15.0,
                drop_probability_range=(0.1, 0.35),
            ),
            num_objects=3,
            duration_ms=400.0,
            post_build=post_build,
        )

    sampled = run(enable_sampled_tracing)
    report = assert_consistent(sampled)
    assert report.checked_operations > 50

    tracer = sampled.cluster.tracer
    assert tracer.sample_rate == 0.1
    # Drop storms guarantee anomalous requests; sampling never hides them.
    escalated = [s for s in tracer.spans if s.name == "escalated"]
    assert escalated, "retry/timeout traces must be escalated at rate 0.1"

    # Sampling is simulation-invisible: the same scenario without tracing
    # replays the identical history.
    untraced = run(use_bimodal_latency)
    assert untraced.cluster.sim.events_scheduled == sampled.cluster.sim.events_scheduled
    assert len(untraced.recorder) == len(sampled.recorder)
