"""A request's equal values are one object in every replica's store.

Retwis's Post writes one post into the author's ``posts``, the author's
timeline and every follower's timeline.  The write set keeps the first
encoded copy for the whole request, nested invocations on other nodes
included, and backups apply the primary's batch objects, so each store
holds that one ``bytes`` object under every key — with the same bytes
an unshared copy would have.
"""

import json

from repro.apps.retwis import user_type
from repro.cluster import Cluster, ClusterConfig
from repro.core import keyspace
from repro.core.ids import ObjectId
from repro.sim import Simulation

TEXT = "".join(f"{i:04d}" for i in range(250))
FOLLOWERS = 8


def _post(**config):
    """A cluster where an author with :data:`FOLLOWERS` followers posted
    :data:`TEXT` once; returns the cluster, the author, the followers and
    the post's timestamp."""
    sim = Simulation(seed=5)
    cluster = Cluster(sim, ClusterConfig(seed=5, **config))
    cluster.register_type(user_type())
    fans = [ObjectId.from_name(f"fan-{i}") for i in range(FOLLOWERS)]
    for index, oid in enumerate(fans):
        cluster.create_object("User", object_id=oid, initial={"name": f"fan-{index}"})
    author = cluster.create_object(
        "User",
        object_id=ObjectId.from_name("author"),
        initial={"name": "author", "followers": {str(oid): {"since": 0} for oid in fans}},
    )
    cluster.start()
    time = cluster.run_invoke(cluster.client("poster"), author, "create_post", TEXT)
    assert cluster.quiesce()
    return cluster, author, fans, time


def _entries(cluster, oid, field):
    """``(node, value)`` for every entry of ``oid``'s collection in every
    replica's store."""
    prefix = keyspace.collection_prefix(oid, field)
    found = []
    for name in cluster.bootstrap_shard_map.shard_for(oid).members:
        entries = cluster.nodes[name].runtime.storage.iterate(prefix, keyspace.prefix_end(prefix))
        found += [(name, value) for _key, value in entries]
    return found


def _expected(time):
    """The canonical encoding of the post, spelled out."""
    return b'{"author":"author","text":"%b","time":%b}' % (TEXT.encode(), json.dumps(time).encode())


def _post_values(cluster, author, fans):
    values = _entries(cluster, author, "posts") + _entries(cluster, author, "timeline")
    for oid in fans:
        values += _entries(cluster, oid, "timeline")
    return values


def test_a_post_is_one_object_in_every_replica_store():
    cluster, author, fans, time = _post()
    values = _post_values(cluster, author, fans)
    replicas = len(cluster.bootstrap_shard_map.shard_for(author).members)
    assert replicas == 3
    assert len(values) == replicas * (FOLLOWERS + 2)
    assert len({name for name, _ in values}) == replicas
    assert all(value == _expected(time) for _name, value in values)
    assert len({id(value) for _name, value in values}) == 1


def test_a_cross_node_nested_write_shares_the_object():
    cluster, author, fans, time = _post(num_storage_nodes=6, num_shards=2)
    shard_map = cluster.bootstrap_shard_map
    home = shard_map.shard_for(author).shard_id
    remote = [oid for oid in fans if shard_map.shard_for(oid).shard_id != home]
    assert remote and len(remote) < len(fans)
    values = _post_values(cluster, author, fans)
    assert len({name for name, _ in values}) == 6
    assert all(value == _expected(time) for _name, value in values)
    assert len({id(value) for _name, value in values}) == 1

