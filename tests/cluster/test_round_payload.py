"""A replication round on the wire: one :class:`~repro.kvstore.batch.Round`
per committed write set, sized by the round layout.

Retwis's Post writes one post into the author's posts, the author's
timeline and every follower's timeline.  The round layout (spelled out
by the reference encoder in :mod:`tests.kvstore.round_oracle`) ships
that value once and every later copy as a back-reference, so a frame
grows with the number of followers by their keys, not by their copies
of the post.
"""

from repro.apps.bank import account_type
from repro.apps.retwis import user_type
from repro.cluster import Cluster, ClusterConfig
from repro.cluster.messages import ReplicateWritesRange
from repro.cluster.migration import Migrator
from repro.core.ids import ObjectId
from repro.sim import Simulation

from tests.kvstore.round_oracle import encode_round

#: long enough that one copy per follower would dominate the frame
TEXT = "".join(f"{i:04d}" for i in range(250))


def _post_frames(followers: int) -> list:
    """Every ReplicateWritesRange one backup receives while an author
    with ``followers`` followers posts :data:`TEXT` once."""
    sim = Simulation(seed=5)
    cluster = Cluster(sim, ClusterConfig(seed=5))
    cluster.register_type(user_type())
    fans = [ObjectId.from_name(f"fan-{i}") for i in range(followers)]
    for index, oid in enumerate(fans):
        cluster.create_object("User", object_id=oid, initial={"name": f"fan-{index}"})
    author = cluster.create_object(
        "User",
        initial={"name": "author", "followers": {str(oid): {"since": 0} for oid in fans}},
    )
    cluster.start()
    backup = cluster.bootstrap_shard_map.shard_for(author).backups[0]
    frames = []
    cluster.net.tap = lambda message: (
        frames.append(message)
        if type(message.payload) is ReplicateWritesRange and message.dst == backup
        else None
    )
    cluster.run_invoke(cluster.client("poster"), author, "create_post", TEXT)
    sim.run(until=sim.now + 5)
    return frames


def test_a_post_ships_its_text_once_per_round():
    frames = _post_frames(followers=6)
    rounds = [round_ for message in frames for round_ in message.payload.rounds]
    assert len(rounds) == 1  # the post is one invocation: one round
    (round_,) = rounds
    # Eight copies are written (posts, own timeline, six followers) ...
    written = [value for batch in round_.batches for _kind, _key, value in batch.items()]
    assert sum(TEXT.encode() in value for value in written) == 8
    assert len(round_.objects) == 7
    # ... and the text crosses the wire once.
    payload, objects = encode_round(round_.batches)
    assert payload.count(TEXT.encode()) == 1
    assert round_.size == len(payload)
    assert round_.objects == objects


def test_frame_bytes_grow_by_less_than_the_text_per_follower():
    def frame_bytes(followers):
        return sum(message.size_bytes for message in _post_frames(followers))

    small, large = frame_bytes(4), frame_bytes(12)
    assert large > small
    assert (large - small) / 8 < len(TEXT)


def test_frame_size_is_the_header_plus_the_round_payloads():
    frames = _post_frames(followers=3)
    assert frames
    for message in frames:
        frame = message.payload
        payloads = [encode_round(round_.batches)[0] for round_ in frame.rounds]
        expected = 48 + 8 * len(frame.rounds) + sum(map(len, payloads))
        assert frame.size() == message.size_bytes == expected


def test_a_migration_drop_reaches_backups_as_the_committed_batch(monkeypatch):
    sim = Simulation(seed=71)
    cluster = Cluster(sim, ClusterConfig(seed=71, num_storage_nodes=4, num_shards=2))
    cluster.register_type(account_type())
    cluster.start()
    a = cluster.create_object("Account", initial={"balance": 100})
    cluster.run_invoke(cluster.client("payer"), a, "withdraw", 40)
    source = cluster.bootstrap_shard_map.shard_for(a)
    primary = cluster.nodes[source.primary]
    assert primary.dump_object_state(a)
    committed = []
    commit_local = primary.commit_local
    monkeypatch.setattr(
        primary, "commit_local", lambda batch: committed.append(batch) or commit_local(batch)
    )
    applied = {name: [] for name in source.backups}
    for name in source.backups:
        applier = cluster.nodes[name].backup_appliers[source.shard_id]
        apply = applier._apply
        monkeypatch.setattr(
            applier, "_apply", lambda batch, seen=applied[name], apply=apply: (
                seen.append(batch) or apply(batch)
            )
        )

    move = sim.process(Migrator(cluster).migrate(a, (source.shard_id + 1) % 2))
    sim.run_until_triggered(move, limit=sim.now + 10_000)
    assert cluster.quiesce()
    # The source primary deleted the object through commit_local, and
    # every backup applied that very batch object.
    (drop,) = committed
    for name in source.backups:
        assert any(batch is drop for batch in applied[name])
    for name in (source.primary, *source.backups):
        assert cluster.nodes[name].dump_object_state(a) == []
