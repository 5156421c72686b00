"""Unit tests for the consistency checker itself.

A checker that cannot detect violations proves nothing — each detector
is exercised against a hand-built violation as well as a clean run.
"""

from repro.chaos import ConsistencyChecker
from repro.cluster import Cluster, ClusterConfig
from repro.chaos.workload import register_type
from repro.core import HistoryRecorder, keyspace
from repro.core.fields import encode_value
from repro.kvstore.batch import WriteBatch
from repro.sim import Simulation


def build_cluster(seed=1, **kwargs):
    sim = Simulation(seed=seed)
    cluster = Cluster(sim, ClusterConfig(seed=seed, **kwargs))
    cluster.register_type(register_type())
    cluster.start()
    return sim, cluster


def make_recorder(ops):
    """ops: (client, object_id, method, args, invoke_at, return_at, result)."""
    recorder = HistoryRecorder()
    for client, object_id, method, args, invoke_at, return_at, result in ops:
        record = recorder.begin(client, object_id, method, args, invoke_at)
        if return_at is not None:
            recorder.finish(record, return_at, result)
    return recorder


def test_clean_cluster_is_consistent():
    sim, cluster = build_cluster()
    oid = cluster.create_object("Register", initial={"value": 0})
    client = cluster.client("c")
    assert cluster.run_invoke(client, oid, "write", "x") == "x"
    assert cluster.quiesce()
    report = ConsistencyChecker(cluster).check(object_ids=[oid])
    assert report.ok, report.summary()
    assert report.checked_nodes == 3


def test_detects_replica_divergence():
    sim, cluster = build_cluster()
    oid = cluster.create_object("Register", initial={"value": 0})
    client = cluster.client("c")
    cluster.run_invoke(client, oid, "write", "agreed")
    assert cluster.quiesce()
    # poison one backup's copy behind the replication protocol's back
    _epoch, shard_map = cluster.current_config()
    backup = cluster.nodes[shard_map.shard_for(oid).backups[0]]
    batch = WriteBatch()
    batch.put(keyspace.value_key(oid, "value"), encode_value("poisoned"))
    backup.runtime.storage.apply(batch)

    report = ConsistencyChecker(cluster).check_convergence([oid])
    assert not report.ok
    assert report.violations[0].kind == "divergence"
    assert "differing value" in report.violations[0].detail


def test_detects_stale_cache_entry():
    sim, cluster = build_cluster()
    oid = cluster.create_object("Register", initial={"value": 0})
    node = next(iter(cluster.nodes.values()))
    # populate the cache with a real readonly result...
    assert node.runtime.invoke(oid, "read") == 0
    assert len(node.runtime.cache) == 1
    # ...then mutate the underlying key without invalidating
    batch = WriteBatch()
    batch.put(keyspace.value_key(oid, "value"), encode_value("sneaky"))
    node.runtime.storage.apply(batch)

    report = ConsistencyChecker(cluster).check_cache_coherence()
    assert [v.kind for v in report.violations] == ["stale-cache"]
    assert report.violations[0].target == node.name


def test_accepts_linearizable_history():
    sim, cluster = build_cluster()
    recorder = make_recorder([
        ("a", "obj", "write", ("x",), 0.0, 1.0, "x"),
        # concurrent with the write: may see either value
        ("b", "obj", "read", (), 0.5, 1.5, 0),
        ("b", "obj", "read", (), 2.0, 3.0, "x"),
    ])
    report = ConsistencyChecker(cluster).check_linearizability(
        recorder, initial={"obj": 0}
    )
    assert report.ok, report.summary()
    assert report.checked_operations == 3


def test_rejects_stale_read():
    sim, cluster = build_cluster()
    recorder = make_recorder([
        ("a", "obj", "write", ("x",), 0.0, 1.0, "x"),
        ("a", "obj", "write", ("y",), 2.0, 3.0, "y"),
        # strictly after both writes, yet observes the overwritten value
        ("b", "obj", "read", (), 4.0, 5.0, "x"),
    ])
    report = ConsistencyChecker(cluster).check_linearizability(recorder)
    assert not report.ok
    assert report.violations[0].kind == "linearizability"


def test_incomplete_write_may_or_may_not_apply():
    sim, cluster = build_cluster()
    checker = ConsistencyChecker(cluster)
    # A write that never returned, then a read observing it: legal.
    observed = make_recorder([
        ("a", "obj", "write", ("lost",), 0.0, None, None),
        ("b", "obj", "read", (), 5.0, 6.0, "lost"),
    ])
    assert checker.check_linearizability(observed, initial={"obj": 0}).ok
    # The same incomplete write never observed: also legal.
    unobserved = make_recorder([
        ("a", "obj", "write", ("lost",), 0.0, None, None),
        ("b", "obj", "read", (), 5.0, 6.0, 0),
    ])
    assert checker.check_linearizability(unobserved, initial={"obj": 0}).ok
    # But a read observing it *before* a completed overwrite, after which a
    # later read resurrects the overwritten value — never legal.
    contradictory = make_recorder([
        ("a", "obj", "write", ("lost",), 0.0, None, None),
        ("b", "obj", "write", ("kept",), 5.0, 6.0, "kept"),
        ("b", "obj", "read", (), 7.0, 8.0, "lost"),
        ("b", "obj", "read", (), 9.0, 10.0, "kept"),
    ])
    report = checker.check_linearizability(contradictory, initial={"obj": 0})
    assert not report.ok


def test_flags_a_method_the_register_model_cannot_interpret():
    sim, cluster = build_cluster()
    recorder = make_recorder([
        ("a", "obj", "write", ("x",), 0.0, 1.0, "x"),
        ("a", "obj", "increment", (1,), 2.0, 3.0, 1),
    ])
    report = ConsistencyChecker(cluster).check_linearizability(recorder)
    assert [v.kind for v in report.violations] == ["linearizability"]
    assert "cannot interpret method 'increment'" in report.violations[0].detail


def test_flags_more_incomplete_writes_than_it_can_enumerate():
    sim, cluster = build_cluster()
    # seven writes that never returned: 2^7 completions is past the bound
    recorder = make_recorder([
        ("a", "obj", "write", (f"lost-{i}",), float(i), None, None) for i in range(7)
    ] + [("b", "obj", "read", (), 10.0, 11.0, 0)])
    report = ConsistencyChecker(cluster).check_linearizability(
        recorder, initial={"obj": 0}
    )
    assert [v.kind for v in report.violations] == ["linearizability"]
    assert "7 incomplete writes exceed the checkable bound of 6" in (
        report.violations[0].detail
    )


def test_detects_unquiesced_bookkeeping():
    sim, cluster = build_cluster()
    node = next(iter(cluster.nodes.values()))
    node._inflight["ghost#1"] = sim.event()
    report = ConsistencyChecker(cluster).check_bookkeeping()
    assert any(
        v.kind == "bookkeeping" and "in flight" in v.detail for v in report.violations
    )
