"""Pins the knob surface: the fields of :class:`ClusterConfig`,
:class:`ServerlessConfig` and :class:`Calibration`, the timing relations
between the constants that replaced fixed knobs, and that every field is
read somewhere."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.bench.calibration import Calibration
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.coordinator import HEARTBEAT_INTERVAL_MS, HEARTBEAT_TIMEOUT_MS
from repro.cluster.replication import ACK_TIMEOUT_MS
from repro.cluster.replica_reads import READ_PARK_MS, REPLICA_READ_LEASE_MS
from repro.serverless import ServerlessConfig
from repro.sim import Simulation

#: every field of each config dataclass, in declaration order.  A new knob
#: has to be added here too, so growing (or shrinking) a surface is a
#: visible decision rather than a side effect.
EXPECTED_FIELDS = {
    ClusterConfig: (
        "num_storage_nodes",
        "num_shards",
        "num_coordinators",
        "cores_per_node",
        "ms_per_fuel",
        "net_median_ms",
        "bandwidth_mbps",
        "enable_cache",
        "auto_failure_detection",
        "durable_dir",
        "group_commit_max_rounds",
        "group_commit_flush_ms",
        "replica_reads",
        "transport_coalescing",
        "coalesce_window_ms",
        "ack_flush_ms",
        "admission_control",
        "tenant_rate_limit",
        "max_inflight_requests",
        "metrics_sample_interval_ms",
        "seeded_bugs",
        "seed",
    ),
    ServerlessConfig: (
        "num_compute_nodes",
        "num_storage_nodes",
        "cores_per_compute_node",
        "cores_per_storage_node",
        "container_pool_size",
        "cold_start_ms",
        "warm_start_ms",
        "keepalive_ms",
        "prewarm",
        "ms_per_fuel",
        "net_median_ms",
        "read_from_any_replica",
        "use_gateway",
        "dispatch_overhead_fuel",
        "transport_coalescing",
        "coalesce_window_ms",
        "metrics_sample_interval_ms",
        "seed",
    ),
    Calibration: (
        "num_storage_nodes",
        "cores_per_node",
        "ms_per_fuel",
        "net_median_ms",
        "num_accounts",
        "avg_follows",
        "zipf_exponent",
        "seed_posts_per_account",
        "num_clients",
        "duration_ms",
        "warmup_ms",
        "seed",
    ),
}

EXPECTED_COUNTS = {ClusterConfig: 22, ServerlessConfig: 18, Calibration: 12}

#: where a field has to be read for it to earn its place
READER_ROOTS = ("src", "benchmarks")
#: what the readers call a config instance: ``config.x``,
#: ``self.config.x``, ``cluster.config.x``, ``cal.x``
CONFIG_NAMES = ("config", "cal")

def field_names(cls) -> tuple:
    return tuple(field.name for field in dataclasses.fields(cls))


def assert_pinned(cls) -> None:
    names = field_names(cls)
    assert names == EXPECTED_FIELDS[cls]
    assert len(names) == EXPECTED_COUNTS[cls]


def test_cluster_config_field_names_are_pinned():
    assert_pinned(ClusterConfig)


def test_serverless_config_field_names_are_pinned():
    assert_pinned(ServerlessConfig)


def test_calibration_field_names_are_pinned():
    assert_pinned(Calibration)


def test_fixed_timings_keep_the_relations_the_clamps_enforced():
    # A partitioned backup's lease must run out before the coordinator
    # can declare it dead and reconfigure the shard around it.
    assert REPLICA_READ_LEASE_MS == HEARTBEAT_TIMEOUT_MS - 2 * HEARTBEAT_INTERVAL_MS
    assert REPLICA_READ_LEASE_MS == 40.0
    # A parked backup read never outlives the lease it waits on.
    assert READ_PARK_MS <= REPLICA_READ_LEASE_MS


@pytest.mark.parametrize("ack_flush_ms", [1.0, 100.0])
def test_effective_ack_flush_stays_within_half_the_ack_timeout(ack_flush_ms):
    cluster = Cluster(Simulation(seed=1), ClusterConfig(ack_flush_ms=ack_flush_ms))
    for node in cluster.nodes.values():
        assert node.acks.flush_ms == min(ack_flush_ms, ACK_TIMEOUT_MS / 2)
        assert node.acks.flush_ms <= ACK_TIMEOUT_MS / 2


def config_fields_read(roots) -> set:
    """Every attribute read off something named like a config instance in
    the Python files under ``roots``.  Requiring the owner's name keeps an
    unrelated attribute of the same name (``AdmissionController`` has a
    ``tenant_burst`` too) from vouching for a field; a declaration is an
    annotated assignment, so it never counts as a read of itself."""
    repo = Path(__file__).resolve().parents[2]
    names = set()
    for root in roots:
        for path in sorted((repo / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                    continue
                owner = node.value
                owner_name = getattr(owner, "id", None) or getattr(owner, "attr", None)
                if owner_name in CONFIG_NAMES:
                    names.add(node.attr)
    return names


def test_every_config_field_is_read_somewhere():
    read = config_fields_read(READER_ROOTS)
    unread = {
        cls.__name__: [name for name in field_names(cls) if name not in read]
        for cls in EXPECTED_FIELDS
    }
    assert not any(unread.values()), (
        f"fields nothing under {READER_ROOTS} reads: {unread}; make each a "
        "named constant in the module that owns it"
    )
