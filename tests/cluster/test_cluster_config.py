"""Pins the knob surface of :class:`ClusterConfig`."""

import dataclasses

from repro.cluster import ClusterConfig

#: every ClusterConfig field, in declaration order.  A new knob has to be
#: added here too, so growing (or shrinking) the surface is a visible
#: decision rather than a side effect.
EXPECTED_FIELDS = (
    "num_storage_nodes",
    "num_shards",
    "num_coordinators",
    "cores_per_node",
    "ms_per_fuel",
    "net_median_ms",
    "net_sigma",
    "net_cap_ms",
    "bandwidth_mbps",
    "enable_cache",
    "fanout_parallelism",
    "heartbeat_interval_ms",
    "heartbeat_timeout_ms",
    "auto_failure_detection",
    "ack_timeout_ms",
    "rpc_default_deadline_ms",
    "durable_dir",
    "completed_cap",
    "charge_max_attempts",
    "group_commit_max_rounds",
    "group_commit_max_bytes",
    "group_commit_flush_ms",
    "replica_reads",
    "replica_read_lease_ms",
    "transport_coalescing",
    "coalesce_window_ms",
    "ack_flush_ms",
    "admission_control",
    "tenant_rate_limit",
    "tenant_burst",
    "max_inflight_requests",
    "shed_policy",
    "shed_queue_threshold",
    "metrics_sample_interval_ms",
    "trace_sample_rate",
    "seeded_bugs",
    "seed",
)


def test_cluster_config_field_names_are_pinned():
    names = tuple(field.name for field in dataclasses.fields(ClusterConfig))
    assert names == EXPECTED_FIELDS
    assert len(names) == 37
