"""Pins the metric families each platform registers in a micro-scale run.

Like ``EXPECTED_FIELDS`` for config knobs, the list below makes adding
an instrument a visible decision: a new family has to be added here, and
the change that adds it should name what reads it (the benchmark
ledger's ``layers.py``, the cost goldens, an experiment, the
``--metrics-out`` payload).  The baseline's permanently-zero
``cache_*`` and ``replication_*`` families are there so both platforms
export the same names.
"""

import pytest

from repro.bench.harness import AGGREGATED, DISAGGREGATED, run_retwis
from repro.workload.retwis_load import RetwisWorkload

from tests.bench.test_experiment_rows import MICRO

#: registered on both platforms by the runtime, the rpc layer, the
#: storage backends and the request-serving nodes
SHARED = (
    "kvstore_applies",
    "kvstore_deletes",
    "kvstore_gets",
    "kvstore_puts",
    "kvstore_size_bytes",
    "node_busy_ms",
    "node_requests",
    "node_shed_requests",
    "replication_acked",
    "replication_applied",
    "replication_buffered_out_of_order",
    "replication_shipped",
    "rpc_calls",
    "rpc_messages_in",
    "rpc_messages_out",
    "rpc_retries",
    "rpc_retry_after",
    "rpc_timeouts",
    "rpc_unhandled",
    "runtime_aborts",
    "runtime_cache_hits",
    "runtime_cache_misses",
    "runtime_commits",
    "runtime_fuel_used",
    "runtime_invocations",
    "runtime_nested_invocations",
)

AGGREGATED_ONLY = (
    "coordinator_commands_applied",
    "coordinator_config_broadcasts",
    "coordinator_config_queries",
    "coordinator_failures_reported",
    "coordinator_heartbeats_seen",
    "coordinator_reconfigurations",
    "dedupe_entries",
    "dedupe_evictions",
    "node_acks_deferred",
    "node_acks_piggybacked",
    "node_acks_timer_flushed",
    "node_config_refreshes",
    "node_dropped_stale_duplicates",
    "node_failed_invocations",
    "node_lease_grants",
    "node_lease_rejections",
    "node_mutating_requests",
    "node_readonly_requests",
    "node_rejected_node_behind",
    "node_rejected_not_primary",
    "node_rejected_wrong_epoch",
    "node_remote_charge_retries",
    "node_remote_charge_timeouts",
    "node_remote_charges",
    "node_replica_behind_rejections",
    "node_replica_reads_served",
    "node_replication_rounds",
    "replication_flush_total",
    "replication_retransmitted",
    "scheduler_acquisitions",
    "scheduler_contentions",
    "scheduler_max_queue_length",
)

#: the consistent result cache's families (``enable_cache=True``)
CACHE = (
    "cache_entries",
    "cache_invalidations",
    "cache_stores",
    "cache_validation_failures",
)

DISAGGREGATED_ONLY = (
    # always 0: the baseline has no consistent cache
    "cache_invalidations",
    "cache_stores",
    "cache_validation_failures",
    "node_failed",
    "node_storage_round_trips",
    # the container pool
    "scheduler_cold_starts",
    "scheduler_container_queue_length",
    "scheduler_containers_in_use",
    "scheduler_expirations",
    "scheduler_warm_containers",
    "scheduler_warm_starts",
)

#: run label -> (variant, platform overrides, expected family names)
RUNS = {
    "aggregated": (AGGREGATED, {}, SHARED + AGGREGATED_ONLY),
    "aggregated-cached": (AGGREGATED, {"enable_cache": True}, SHARED + AGGREGATED_ONLY + CACHE),
    "disaggregated": (DISAGGREGATED, {}, SHARED + DISAGGREGATED_ONLY),
}


@pytest.mark.parametrize("label", list(RUNS))
def test_registered_metric_families_are_pinned(label):
    variant, overrides, expected = RUNS[label]
    run = run_retwis(variant, RetwisWorkload.POST, MICRO, **overrides)
    assert sorted(run.platform.metrics.families()) == sorted(expected)
