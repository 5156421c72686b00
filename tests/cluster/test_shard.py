"""Unit tests for microshard mapping."""

import random

import pytest

from repro.cluster.shard import ReplicaSet, ShardMap
from repro.core import ObjectId
from repro.errors import ShardUnavailableError


def make_map(num_shards=3, nodes_per_shard=2):
    replica_sets = []
    node = 0
    for shard_id in range(num_shards):
        members = [f"n{node + i}" for i in range(nodes_per_shard)]
        node += nodes_per_shard
        replica_sets.append(ReplicaSet(shard_id, members[0], members[1:]))
    return ShardMap(replica_sets=replica_sets)


def test_assignment_is_deterministic():
    shard_map = make_map()
    oid = ObjectId.from_name("x")
    assert shard_map.shard_for(oid).shard_id == shard_map.shard_for(oid).shard_id


def test_assignment_distributes_reasonably():
    shard_map = make_map(num_shards=4)
    rng = random.Random(0)
    counts = [0, 0, 0, 0]
    for _ in range(2000):
        counts[shard_map.shard_for(ObjectId.generate(rng)).shard_id] += 1
    assert min(counts) > 300  # no empty/starved shard


def test_override_redirects_object():
    shard_map = make_map()
    oid = ObjectId.from_name("moveme")
    home = shard_map.shard_for(oid).shard_id
    target = (home + 1) % 3
    shard_map.move_override(oid, target)
    assert shard_map.shard_for(oid).shard_id == target


def test_override_back_home_clears_table():
    shard_map = make_map()
    oid = ObjectId.from_name("roundtrip")
    home = shard_map.default_shard_id(oid)
    shard_map.move_override(oid, (home + 1) % 3)
    shard_map.move_override(oid, home)
    assert shard_map.overrides == {}


def test_override_to_unknown_shard_rejected():
    shard_map = make_map()
    with pytest.raises(ShardUnavailableError):
        shard_map.move_override(ObjectId.from_name("x"), 99)


def test_copy_is_deep():
    shard_map = make_map()
    clone = shard_map.copy()
    clone.replica_sets[0].primary = "other"
    clone.overrides["foo" * 10 + "ab"] = 1
    assert shard_map.replica_sets[0].primary != "other"
    assert shard_map.overrides == {}


def test_nodes_lists_every_member_once():
    shard_map = make_map(num_shards=2, nodes_per_shard=3)
    assert shard_map.nodes() == [f"n{i}" for i in range(6)]


def test_shard_of_node():
    shard_map = make_map()
    assert shard_map.shard_of_node("n0").shard_id == 0
    assert shard_map.shard_of_node("n3").shard_id == 1
    assert shard_map.shard_of_node("ghost") is None


def test_empty_map_raises():
    with pytest.raises(ShardUnavailableError):
        ShardMap().shard_for(ObjectId.from_name("x"))


def test_primary_for_matches_shard():
    shard_map = make_map()
    oid = ObjectId.from_name("p")
    assert shard_map.primary_for(oid) == shard_map.shard_for(oid).primary


def _placement(shard_map, oids):
    return [shard_map.shard_for(oid).shard_id for oid in oids]


def test_memo_follows_replica_sets_added_removed_and_replaced():
    # The rendezvous memo is validated against the replica-set list on
    # every lookup; a map mutated in place must place objects exactly as
    # a map that never memoised anything.
    rng = random.Random(3)
    oids = [ObjectId.generate(rng) for _ in range(300)]
    shard_map = make_map(num_shards=2)
    assert _placement(shard_map, oids) == _placement(make_map(num_shards=2), oids)

    shard_map.replica_sets.append(ReplicaSet(2, "n4", ["n5"]))
    grown = _placement(shard_map, oids)
    assert grown == _placement(make_map(num_shards=3), oids)
    assert 2 in grown

    removed = shard_map.replica_sets.pop(0)
    fresh = ShardMap(replica_sets=[rs.copy() for rs in shard_map.replica_sets])
    assert _placement(shard_map, oids) == _placement(fresh, oids)
    assert removed.shard_id not in _placement(shard_map, oids)

    shard_map.replica_sets[0] = ReplicaSet(7, "n1", ["n0"])  # same length, new id
    fresh = ShardMap(replica_sets=[rs.copy() for rs in shard_map.replica_sets])
    assert _placement(shard_map, oids) == _placement(fresh, oids)
    assert 7 in _placement(shard_map, oids)


def test_memo_survives_membership_change_within_a_set():
    shard_map = make_map()
    oid = ObjectId.from_name("failover")
    home = shard_map.shard_for(oid)
    home.primary, home.backups = home.backups[0], [home.primary]  # promote in place
    assert shard_map.shard_for(oid) is home
    assert shard_map.primary_for(oid) == home.primary


def test_override_wins_over_a_warm_memo():
    shard_map = make_map()
    oid = ObjectId.from_name("warm")
    home = shard_map.shard_for(oid).shard_id  # memoised
    target = (home + 1) % 3
    shard_map.move_override(oid, target)
    assert shard_map.shard_for(oid).shard_id == target
    assert shard_map.default_shard_id(oid) == home
    shard_map.move_override(oid, home)
    assert shard_map.overrides == {}
    assert shard_map.shard_for(oid).shard_id == home


def test_has_member_agrees_with_members():
    replica_set = ReplicaSet(0, "p", ["b1", "b2"])
    for node in ("p", "b1", "b2", "ghost", ""):
        assert replica_set.has_member(node) == (node in replica_set.members)
    assert ReplicaSet(1, "solo").has_member("solo")
